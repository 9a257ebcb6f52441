package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldcflood/internal/tracebin"
	"ldcflood/internal/tracelog"
)

// testOptions returns a small, fast run; tests override individual fields.
func testOptions() options {
	return options{
		protoName: "opt",
		topoName:  "greenorbs",
		duty:      0.10,
		m:         5,
		coverage:  0.99,
		seed:      1,
		topoSeed:  1,
		inject:    1,
	}
}

func TestRunGreenOrbs(t *testing.T) {
	o := testOptions()
	o.verbose = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunTestbedTopology(t *testing.T) {
	o := testOptions()
	o.protoName = "dbao"
	o.topoName = "testbed"
	o.m = 3
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllProtocols(t *testing.T) {
	for _, p := range []string{"opt", "dbao", "of", "naive"} {
		o := testOptions()
		o.protoName = p
		o.duty = 0.20
		o.m = 3
		o.seed = 2
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name  string
		proto string
		topo  string
		duty  float64
	}{
		{"bad protocol", "bogus", "greenorbs", 0.1},
		{"bad duty", "opt", "greenorbs", 0},
		{"bad duty high", "opt", "greenorbs", 1.5},
		{"missing file", "opt", "/nonexistent/trace.txt", 0.1},
	}
	for _, c := range cases {
		o := testOptions()
		o.protoName = c.proto
		o.topoName = c.topo
		o.duty = c.duty
		o.m = 2
		if err := run(o); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
}

func TestRunWithTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.tracebin")
	o := testOptions()
	o.protoName = "dbao"
	o.m = 3
	o.traceFile = path
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, torn, err := tracebin.ReadAll(f)
	if err != nil || torn {
		t.Fatalf("trace did not decode cleanly: torn=%v err=%v", torn, err)
	}
	s := tracelog.Summarize(events)
	if s.Injections != 3 || s.Transmissions == 0 || s.Covered != 3 {
		t.Fatalf("trace summary: %+v", s)
	}
}

// closeFails is a trace file whose Close reports errClose, the way a
// final write-back can fail on some file systems.
type closeFails struct{ *os.File }

var errClose = errors.New("close failed")

func (c closeFails) Close() error {
	c.File.Close()
	return errClose
}

// TestRunTraceCloseError: a failed Close of the -trace file is the run's
// error, not a silent success.
func TestRunTraceCloseError(t *testing.T) {
	orig := create
	t.Cleanup(func() { create = orig })
	create = func(name string) (io.WriteCloser, error) {
		f, err := os.Create(name)
		return closeFails{f}, err
	}
	o := testOptions()
	o.traceFile = filepath.Join(t.TempDir(), "trace.tracebin")
	if err := run(o); !errors.Is(err, errClose) {
		t.Fatalf("run = %v, want the Close error", err)
	}
}

// TestRunStatsTable: -stats must print the sim counter catalog after a
// run, and attaching telemetry must not break the run itself.
func TestRunStatsTable(t *testing.T) {
	var statsBuf bytes.Buffer
	o := testOptions()
	o.statsOut = &statsBuf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"sim.runs.completed", "sim.tx.attempts", "sim.slots.visited"} {
		if !strings.Contains(statsBuf.String(), k) {
			t.Errorf("stats table missing %q:\n%s", k, statsBuf.String())
		}
	}
}

// TestRunDebugAddr: the debug server must start and stop cleanly around a
// run (endpoint content is covered by internal/telemetry's server tests).
func TestRunDebugAddr(t *testing.T) {
	o := testOptions()
	o.debugAddr = "127.0.0.1:0"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTopologyFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.txt")
	content := "graph demo 3\nlink 0 1 0.9\nlink 1 2 0.9\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadTopology(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.Name != "demo" {
		t.Fatalf("loaded wrong graph: %v", g)
	}
	o := testOptions()
	o.topoName = path
	o.duty = 0.5
	o.m = 2
	o.coverage = 1
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}
