package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ldcflood/internal/experiments"
	"ldcflood/internal/runner"
)

func testOpts() experiments.SimOptions {
	o := experiments.QuickSimOptions()
	o.M = 5
	o.Duties = []float64{0.10, 0.20}
	return o
}

// one computes the figure a single -fig name selects.
func one(name string, opts experiments.SimOptions) (*experiments.FigureData, error) {
	picks, err := resolve(name)
	if err != nil {
		return nil, err
	}
	e := experiments.Figures[picks[0].entry]
	figs, err := e.Run(opts)
	if err != nil {
		return nil, err
	}
	return figs[slices.Index(e.IDs, picks[0].id)], nil
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

// TestFigureTableResolves checks the figure table as the CLI reads it:
// IDs and aliases share one namespace without duplicates, every one
// resolves to the entry that emits it, all and extensions split the IDs
// between them, and a list naming two figures of one entry runs that
// entry's batch once.
func TestFigureTableResolves(t *testing.T) {
	seen := map[string]bool{}
	for i, e := range experiments.Figures {
		check := func(name, id string) {
			if seen[name] {
				t.Errorf("name %q appears twice in the table", name)
			}
			seen[name] = true
			if p, ok := lookup(name); !ok || p != (pick{i, id}) {
				t.Errorf("lookup(%q) = %+v, %v; want entry %d, %q", name, p, ok, i, id)
			}
		}
		for _, id := range e.IDs {
			check(id, id)
		}
		for alias, id := range e.Aliases {
			if !slices.Contains(e.IDs, id) {
				t.Errorf("alias %q names %q, which entry %v does not emit", alias, id, e.IDs)
			}
			check(alias, id)
		}
	}
	var split []string
	for _, set := range []string{"all", "extensions"} {
		picks, err := resolve(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range picks {
			split = append(split, p.id)
		}
	}
	if !slices.Equal(split, figureIDs()) {
		t.Errorf("all then extensions = %v, want every ID once: %v", split, figureIDs())
	}

	opts := testOpts()
	batches := 0
	opts.Progress = func(p runner.Progress) {
		if p.Done == p.Total {
			batches++
		}
	}
	dir := t.TempDir()
	if err := run("fig10,fig11", opts, dir); err != nil {
		t.Fatal(err)
	}
	if batches != 1 {
		t.Errorf("fig10,fig11 ran %d batches, want 1", batches)
	}
	for _, id := range []string{"fig10", "fig11"} {
		if _, err := os.Stat(filepath.Join(dir, id+".txt")); err != nil {
			t.Error(err)
		}
	}
}
