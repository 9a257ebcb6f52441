package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
	"ldcflood/internal/tracelog"
)

// runWith runs one small, fixed flood with obs attached. DBAO overhears
// on this grid, so the trace holds every event kind.
func runWith(t *testing.T, obs sim.Observer) {
	t.Helper()
	g := topology.Grid(5, 5, 0.9)
	p, err := flood.New("dbao")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Graph:          g,
		Schedules:      schedule.AssignUniform(g.N(), 10, rngutil.New(7).SubName("schedule")),
		Protocol:       p,
		M:              3,
		InjectInterval: 2,
		Coverage:       1,
		Seed:           7,
		Observer:       obs,
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// capture returns the fixed flood's trace as a tracebin.Writer attached
// to the run emits it, and as a tracelog.Logger attached to a rerun
// renders it.
func capture(t *testing.T) (bin, text []byte) {
	t.Helper()
	var bbuf, tbuf bytes.Buffer
	w := tracebin.NewWriter(&bbuf)
	runWith(t, w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	l := tracelog.NewLogger(&tbuf)
	runWith(t, l)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	return bbuf.Bytes(), tbuf.Bytes()
}

// writeTemp writes data to a fresh file and returns its path.
func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRenderMatchesEngineLogger certifies the text rendering against the
// engine: tracecat's output for a trace file must equal, byte for byte,
// what a tracelog.Logger attached directly to the run printed.
func TestRenderMatchesEngineLogger(t *testing.T) {
	bin, text := capture(t)
	got := filepath.Join(t.TempDir(), "out.txt")
	if err := run(writeTemp(t, "flood.tracebin", bin), got, false, false); err != nil {
		t.Fatal(err)
	}
	rendered, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"I", "T", "O", "C"} {
		if !bytes.Contains(append([]byte("\n"), text...), []byte("\n"+tag+" ")) {
			t.Fatalf("the fixed run emitted no %s event; the comparison would not cover that kind", tag)
		}
	}
	if !bytes.Equal(rendered, text) {
		t.Errorf("tracecat rendering (%d B) differs from the engine-attached Logger (%d B)", len(rendered), len(text))
	}
}

// closeFails is an output file whose Close reports errClose, the way a
// final write-back can fail on some file systems.
type closeFails struct{ *os.File }

var errClose = errors.New("close failed")

func (c closeFails) Close() error {
	c.File.Close()
	return errClose
}

// TestOutputCloseError: a failed Close of the -o file is the command's
// error, not a silent success.
func TestOutputCloseError(t *testing.T) {
	bin, _ := capture(t)
	orig := create
	t.Cleanup(func() { create = orig })
	create = func(name string) (io.WriteCloser, error) {
		f, err := os.Create(name)
		return closeFails{f}, err
	}
	out := filepath.Join(t.TempDir(), "out.txt")
	if err := run(writeTemp(t, "flood.tracebin", bin), out, false, false); !errors.Is(err, errClose) {
		t.Fatalf("run = %v, want the Close error", err)
	}
}

// TestValidate exercises the -validate path on a good trace and on one
// that breaks possession monotonicity.
func TestValidate(t *testing.T) {
	bin, _ := capture(t)
	if err := run(writeTemp(t, "good.tracebin", bin), "", false, true); err != nil {
		t.Fatalf("valid trace failed validation: %v", err)
	}
	// Node 3 transmits packet 0 without ever holding it.
	bad, err := tracebin.Encode([]tracelog.Event{{Kind: tracelog.KindTransmit, T: 1, From: 3, To: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(writeTemp(t, "bad.tracebin", bad), "", false, true); err == nil {
		t.Fatal("inconsistent trace passed validation")
	}
}

// TestLoadDetectsAndReports checks that load decodes a whole trace,
// tolerates a torn tail, and rejects input without the trace magic —
// such as a saved text rendering — with an error that names the magic.
func TestLoadDetectsAndReports(t *testing.T) {
	bin, text := capture(t)
	events, err := load(writeTemp(t, "a.tracebin", bin))
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Count(text, []byte("\n")); len(events) == 0 || len(events) != want {
		t.Fatalf("decoded %d events, the rendering has %d lines", len(events), want)
	}

	torn, err := load(writeTemp(t, "torn.tracebin", bin[:len(bin)-1]))
	if err != nil {
		t.Fatalf("torn tail must not be an error: %v", err)
	}
	if len(torn) != len(events)-1 {
		t.Fatalf("torn load returned %d events, want %d", len(torn), len(events)-1)
	}

	if _, err := load(writeTemp(t, "flood.txt", text)); err == nil || !strings.Contains(err.Error(), `"LDCT"`) {
		t.Fatalf("text input error %v does not name the expected magic", err)
	}
}

// TestSummary spot-checks the rendered statistics table.
func TestSummary(t *testing.T) {
	rec := &tracelog.Recorder{}
	runWith(t, rec)
	var buf bytes.Buffer
	if err := printSummary(&buf, rec.Events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"injections     3", "covered        3", "outcome success"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
