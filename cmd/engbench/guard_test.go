package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testHost = host{CPU: "test cpu", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0"}

// spread is a timing with median m ms and quartiles m∓1 ms, so its bound
// is m+1+3·2 = m+7 ms.
func spread(m int64) timing {
	return timing{MedianNS: m * 1e6, Q1NS: (m - 1) * 1e6, Q3NS: (m + 1) * 1e6}
}

// testDoc builds a two-row document whose every timed column has median
// 50 ms (opt) or 80 ms (dbao), each with an IQR of 2 ms.
func testDoc(reps int) *document {
	mk := func(name string, m, slots, bytes int64) row {
		return row{Name: name, Slots: slots, TraceBinBytes: bytes,
			Build: spread(m), Rank: spread(m), Plain: spread(m), Telemetry: spread(m), Traced: spread(m)}
	}
	return &document{Host: testHost, Reps: reps, Rows: []row{
		mk("opt/10000/100", 50, 1628, 22261),
		mk("dbao/10000/100", 80, 1763, 22443),
	}}
}

func TestGuardIdenticalBaselinePasses(t *testing.T) {
	var out bytes.Buffer
	if err := guard(&out, testDoc(5), testDoc(9)); err != nil {
		t.Fatalf("identical baseline failed the guard: %v", err)
	}
	if !strings.Contains(out.String(), "wall clock (bound") {
		t.Fatalf("guard did not say it compared wall clock: %q", out.String())
	}
}

func TestGuardExactColumnsFailOnAnyHost(t *testing.T) {
	for _, sameHost := range []bool{true, false} {
		for _, drift := range []struct {
			name string
			edit func(*row)
			want string
		}{
			{"slots", func(r *row) { r.Slots++ }, "dbao/10000/100: slot horizon"},
			{"trace bytes", func(r *row) { r.TraceBinBytes-- }, "dbao/10000/100: trace emits"},
			{"links", func(r *row) { r.Links++ }, "dbao/10000/100: topology has"},
		} {
			cur := testDoc(1)
			if !sameHost {
				cur.Host.CPU = "another cpu"
			}
			drift.edit(&cur.Rows[1])
			err := guard(io.Discard, cur, testDoc(9))
			if err == nil || !strings.Contains(err.Error(), drift.want) {
				t.Errorf("same host %v: %s drift passed the guard or was misnamed: %v", sameHost, drift.name, err)
			}
		}
	}
}

func TestGuardRowSetMustMatch(t *testing.T) {
	cur := testDoc(5)
	cur.Rows = cur.Rows[:1]
	err := guard(io.Discard, cur, testDoc(9))
	if err == nil || !strings.Contains(err.Error(), "dbao/10000/100: baseline row missing") {
		t.Fatalf("missing row passed the guard or was misnamed: %v", err)
	}
	cur = testDoc(5)
	cur.Rows = append(cur.Rows, row{Name: "trickle/10000/20"})
	err = guard(io.Discard, cur, testDoc(9))
	if err == nil || !strings.Contains(err.Error(), "trickle/10000/20: not in the baseline") {
		t.Fatalf("extra row passed the guard or was misnamed: %v", err)
	}
}

func TestGuardWallClockNeedsSameHostAndReps(t *testing.T) {
	slow := func(reps int) *document {
		d := testDoc(reps)
		d.Rows[0].Plain = spread(500)
		return d
	}
	otherHost := slow(9)
	otherHost.Host.GOMAXPROCS = 1
	for name, cur := range map[string]*document{
		"other host": otherHost,
		"2 reps":     slow(minGuardReps - 1),
	} {
		var out bytes.Buffer
		if err := guard(&out, cur, testDoc(9)); err != nil {
			t.Errorf("%s: wall clock was compared: %v", name, err)
		}
		if !strings.Contains(out.String(), "wall clock not compared") {
			t.Errorf("%s: guard did not say it skipped wall clock: %q", name, out.String())
		}
	}
	if err := guard(io.Discard, slow(minGuardReps), testDoc(9)); err == nil {
		t.Fatalf("a tenfold plain median passed the guard at %d reps on the same host", minGuardReps)
	}
}

func TestGuardWallClockBound(t *testing.T) {
	// The baseline's opt columns have Q1 49 ms and Q3 51 ms: the bound is
	// 51 + 3·2 = 57 ms.
	for _, col := range []struct {
		name string
		set  func(*row, timing)
	}{
		{"build", func(r *row, t timing) { r.Build = t }},
		{"plain", func(r *row, t timing) { r.Plain = t }},
		{"telemetry", func(r *row, t timing) { r.Telemetry = t }},
		{"traced", func(r *row, t timing) { r.Traced = t }},
	} {
		for _, c := range []struct {
			median int64
			pass   bool
		}{{50, true}, {57, true}, {58, false}} {
			cur := testDoc(5)
			col.set(&cur.Rows[0], spread(c.median))
			err := guard(io.Discard, cur, testDoc(9))
			if c.pass && err != nil {
				t.Errorf("%s median %d ms within the bound failed: %v", col.name, c.median, err)
			}
			if !c.pass && (err == nil || !strings.Contains(err.Error(), "opt/10000/100: "+col.name+" median")) {
				t.Errorf("%s median %d ms past the bound passed or was misnamed: %v", col.name, c.median, err)
			}
		}
	}
	// The rank view is recorded, not guarded.
	cur := testDoc(5)
	cur.Rows[0].Rank = spread(500)
	if err := guard(io.Discard, cur, testDoc(9)); err != nil {
		t.Fatalf("rank view was guarded: %v", err)
	}
}

func TestGuardScaleSlowRowFails(t *testing.T) {
	// Slowing every timed column of the opt row to its bound (57 ms) passes;
	// one millisecond past it fails once per guarded column, naming the opt
	// row only.
	slowRow := func(m int64) *document {
		d := testDoc(5)
		r := &d.Rows[0]
		r.Build, r.Plain, r.Telemetry, r.Traced = spread(m), spread(m), spread(m), spread(m)
		return d
	}
	if err := guard(io.Discard, slowRow(57), testDoc(9)); err != nil {
		t.Fatalf("row within the bound failed the guard: %v", err)
	}
	err := guard(io.Discard, slowRow(58), testDoc(9))
	if err == nil || !strings.Contains(err.Error(), "4 failure(s)") || strings.Contains(err.Error(), "dbao/10000/100") {
		t.Fatalf("slow row passed the guard or was misreported: %v", err)
	}
	for _, col := range []string{"build", "plain", "telemetry", "traced"} {
		if !strings.Contains(err.Error(), "opt/10000/100: "+col+" median") {
			t.Errorf("slow row's %s column was not named: %v", col, err)
		}
	}
}

func TestGuardScaleSlowBuildFails(t *testing.T) {
	// The dbao build bound is 81 + 3·2 = 87 ms; a slow build alone fails
	// and names only the build column.
	cur := testDoc(5)
	cur.Rows[1].Build = spread(87)
	if err := guard(io.Discard, cur, testDoc(9)); err != nil {
		t.Fatalf("build within the bound failed the guard: %v", err)
	}
	cur.Rows[1].Build = spread(88)
	err := guard(io.Discard, cur, testDoc(9))
	if err == nil || !strings.Contains(err.Error(), "dbao/10000/100: build median") || !strings.Contains(err.Error(), "1 failure(s)") {
		t.Fatalf("slow build passed the guard or was misnamed: %v", err)
	}
}

func TestGuardSlowSharedBuildFailsOnce(t *testing.T) {
	// Four rows of one node count share its build, as measure writes
	// them; one slow build is one failure, named under the first row.
	doc := func(build int64) *document {
		d := &document{Host: testHost, Reps: 5}
		for _, p := range []string{"opt", "dbao", "dflood", "trickle"} {
			d.Rows = append(d.Rows, row{Name: p + "/100000/100", Nodes: 100000,
				Build: spread(build), Rank: spread(50), Plain: spread(50), Telemetry: spread(50), Traced: spread(50)})
		}
		return d
	}
	if err := guard(io.Discard, doc(2807), doc(2800)); err != nil {
		t.Fatalf("build within the bound failed the guard: %v", err)
	}
	err := guard(io.Discard, doc(2808), doc(2800))
	if err == nil || !strings.Contains(err.Error(), "1 failure(s)") ||
		strings.Count(err.Error(), "build median") != 1 || !strings.Contains(err.Error(), "opt/100000/100: build median") {
		t.Fatalf("one slow shared build was not reported exactly once under the first row: %v", err)
	}
}

func TestLoadRefusesOldFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"generator": "cmd/engbench", "reps": 5, "cases": [{"protocol": "opt", "duty": "1pct", "ns": 1695697, "slots": 1503}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); err == nil || !strings.Contains(err.Error(), "cases") {
		t.Fatalf("a minimum-of-reps baseline loaded: %v", err)
	}
}

// TestCommittedBaselines loads both committed files: each must be in the
// current format, hold its grid's rows, certify instrument neutrality, and
// give every timed column ordered quartiles.
func TestCommittedBaselines(t *testing.T) {
	for file, grid := range map[string][]cell{
		"../../BENCH_engine.json": engineGrid,
		"../../BENCH_scale.json":  scaleGrid,
	} {
		doc, err := load(file)
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.Rows) != len(grid) || doc.Host.NProc == 0 {
			t.Fatalf("%s: %d rows for a %d-cell grid, host %+v", file, len(doc.Rows), len(grid), doc.Host)
		}
		if err := guard(io.Discard, doc, doc); err != nil {
			t.Fatalf("%s fails against itself: %v", file, err)
		}
		for i, r := range doc.Rows {
			c := grid[i]
			if r.Protocol != c.protocol || r.Nodes != c.nodes || r.Period != c.period || r.M != c.m || !r.Identical {
				t.Errorf("%s: row %s does not match grid cell %+v or is not identical", file, r.Name, c)
			}
			for _, tm := range []timing{r.Build, r.Rank, r.Plain, r.Telemetry, r.Traced} {
				if tm.Q1NS <= 0 || tm.Q1NS > tm.MedianNS || tm.MedianNS > tm.Q3NS {
					t.Errorf("%s: row %s has a timing without ordered quartiles: %+v", file, r.Name, tm)
				}
			}
		}
	}
}
