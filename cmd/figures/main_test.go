package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldcflood/internal/experiments"
)

func testOpts() experiments.SimOptions {
	o := experiments.QuickSimOptions()
	o.M = 5
	o.Duties = []float64{0.10, 0.20}
	return o
}

func TestOneResolvesAllIDs(t *testing.T) {
	ids := []string{
		"fig3", "3", "table1", "tablei", "t1",
		"fig5", "5", "fig6", "6", "fig7", "7", "fig8", "8",
	}
	for _, id := range ids {
		fd, err := one(id, testOpts())
		if err != nil {
			t.Fatalf("one(%q): %v", id, err)
		}
		if fd == nil || fd.ID == "" {
			t.Fatalf("one(%q) returned empty figure", id)
		}
	}
}

func TestOneSimulationFigures(t *testing.T) {
	for _, id := range []string{"fig9", "fig10", "fig11"} {
		fd, err := one(id, testOpts())
		if err != nil {
			t.Fatalf("one(%q): %v", id, err)
		}
		if len(fd.Series) == 0 {
			t.Fatalf("one(%q) has no series", id)
		}
	}
}

func TestOneUnknownID(t *testing.T) {
	// "adaptive" named a figure that has been removed.
	for _, id := range []string{"fig99", "adaptive"} {
		_, err := one(id, testOpts())
		if err == nil || !strings.Contains(err.Error(), "unknown figure") {
			t.Fatalf("one(%q) error = %v, want an unknown-figure error", id, err)
		}
	}
}

func TestRunCommaList(t *testing.T) {
	if err := run("fig5, fig6", testOpts(), ""); err != nil {
		t.Fatal(err)
	}
	if err := run("bogus", testOpts(), ""); err == nil {
		t.Fatal("bogus list accepted")
	}
}

func TestRunWritesFiles(t *testing.T) {
	dir := t.TempDir()
	if err := run("fig5,fig7", testOpts(), dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig5.txt", "fig7.txt"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 100 {
			t.Fatalf("%s too small (%d bytes)", name, len(data))
		}
	}
}

// TestRunExtensionIDs resolves every id AllExtensions emits through
// the -fig switch, so the CLI and the registry cannot drift apart, and
// checks that both render the same figure from the same options.
func TestRunExtensionIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every extension figure twice")
	}
	opts := testOpts()
	figs, err := experiments.AllExtensions(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range figs {
		fd, err := one(want.ID, opts)
		if err != nil {
			t.Fatalf("one(%q): %v", want.ID, err)
		}
		if fd.ID != want.ID {
			t.Fatalf("one(%q) returned figure %q", want.ID, fd.ID)
		}
		if fd.Render() != want.Render() {
			t.Fatalf("one(%q) renders differently from AllExtensions", want.ID)
		}
	}
}
