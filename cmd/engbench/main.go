// Command engbench produces the committed engine-throughput baseline
// BENCH_engine.json: the BenchmarkEngine grid (298-node GreenOrbs ×
// {OPT, DBAO, OF, Trickle, DFlood} × duty {1%, 5%}) timed per run.
//
// Each case runs -reps times through the batch runner (single-worker, so
// timings are not perturbed by sibling jobs) and reports the minimum
// wall-clock per run — the least noisy estimator on a shared machine.
//
// Each case is also re-timed with a telemetry registry attached and with
// a full event trace (internal/tracebin) attached, recording each cost
// against the plain run and the deterministic per-run trace byte count —
// the committed baseline doubles as the trace-size record referenced by
// docs/TRACE.md and EXPERIMENTS.md. The instrumented results are compared field-for-field
// with the plain one; a mismatch fails the command, so a committed
// baseline also certifies that instrumentation never steers the engine.
//
// Usage:
//
//	go run ./cmd/engbench [-reps 5] [-o BENCH_engine.json]
//	go run ./cmd/engbench -against BENCH_engine.json -tolerance 0.5 -o ""
//
// With -against, the fresh measurement is additionally checked against a
// committed baseline: every case's slot horizon must match exactly (a
// mismatch means the engine's clean-path behavior changed), and wall-clock
// per column may not regress by more than -tolerance (a fraction; wall time
// on shared machines is noisy, so keep it generous). Passing -o "" skips
// rewriting the baseline, turning the command into a pure regression
// guard.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"time"

	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/runner"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
)

// benchCase is one grid cell of the committed baseline.
type benchCase struct {
	Protocol string `json:"protocol"`
	Duty     string `json:"duty"`
	Period   int    `json:"period"`
	// NS is the minimum wall-clock nanoseconds per run over -reps
	// repetitions.
	NS int64 `json:"ns"`
	// Slots is the simulated-slot horizon of the run.
	Slots int64 `json:"slots"`
	// Identical records that the telemetry- and trace-attached runs
	// produced sim.Results field-for-field equal to the plain run's;
	// engbench fails before writing output if any case is false, so a
	// committed file always says true.
	Identical bool `json:"identical"`
	// TelemetryNS is the run re-timed with a telemetry.Registry attached,
	// and TelemetryOverhead its fractional cost versus NS (may dip below
	// zero on a noisy machine).
	TelemetryNS       int64   `json:"telemetry_ns"`
	TelemetryOverhead float64 `json:"telemetry_overhead"`
	// TraceBinNS is the run re-timed with a full event trace
	// (internal/tracebin) attached, and TraceBinBytes the bytes one run
	// emits; the byte count is deterministic, so guard demands exact
	// equality, while the timing gets the usual tolerance.
	TraceBinNS    int64 `json:"trace_bin_ns"`
	TraceBinBytes int64 `json:"trace_bin_bytes"`
}

// baseline is the BENCH_engine.json document.
type baseline struct {
	Generator string      `json:"generator"`
	Topology  string      `json:"topology"`
	Nodes     int         `json:"nodes"`
	M         int         `json:"m"`
	Coverage  float64     `json:"coverage"`
	Seed      int64       `json:"seed"`
	Reps      int         `json:"reps"`
	Cases     []benchCase `json:"cases"`
}

func main() {
	reps := flag.Int("reps", 5, "repetitions per case and column; the minimum wall-clock is reported")
	out := flag.String("o", "BENCH_engine.json", "output file (empty skips writing)")
	against := flag.String("against", "", "committed baseline to guard against (empty skips the check)")
	tolerance := flag.Float64("tolerance", 0.5, "allowed fractional wall-clock regression vs -against")
	scale := flag.Bool("scale", false, "run the large-topology wall-clock grid (BENCH_scale.json) instead of the engine grid")
	scaleReps := flag.Int("scale-reps", 5, "repetitions per -scale row and of the -fig scale timing; the median and quartiles are reported")
	smoke := flag.Bool("scale-smoke", false, "run the CI scale smoke (10k-node rgg, OPT and DBAO must complete at their recorded slot horizons) and exit")
	flag.Parse()

	if *smoke {
		if err := runScaleSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "engbench:", err)
			os.Exit(1)
		}
		return
	}
	if *scale {
		o := *out
		if o == "BENCH_engine.json" { // untouched default: scale mode names its own file
			o = "BENCH_scale.json"
		}
		if err := runScale(o, *against, *tolerance, *scaleReps); err != nil {
			fmt.Fprintln(os.Stderr, "engbench:", err)
			os.Exit(1)
		}
		return
	}

	doc, err := measure(*reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "engbench:", err)
		os.Exit(1)
	}
	if *against != "" {
		if err := guard(doc, *against, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "engbench:", err)
			os.Exit(1)
		}
		fmt.Printf("baseline %s holds within %.0f%%\n", *against, *tolerance*100)
	}
	if *out == "" {
		return
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "engbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "engbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d cases)\n", *out, len(doc.Cases))
}

// guard compares a fresh measurement against a committed baseline. Slot
// horizons and trace byte counts must match exactly — they are
// deterministic, so any drift means the engine's behavior or an encoding
// changed, not that the machine was busy. Wall clock may not regress by
// more than tol per column.
func guard(doc *baseline, path string, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	byCell := make(map[string]benchCase, len(base.Cases))
	for _, c := range base.Cases {
		byCell[c.Protocol+"/"+c.Duty] = c
	}
	for _, c := range doc.Cases {
		b, ok := byCell[c.Protocol+"/"+c.Duty]
		if !ok {
			return fmt.Errorf("%s: baseline lacks case %s/%s", path, c.Protocol, c.Duty)
		}
		if c.Slots != b.Slots {
			return fmt.Errorf("%s/%s: slot horizon %d differs from baseline %d — engine behavior changed",
				c.Protocol, c.Duty, c.Slots, b.Slots)
		}
		if c.TraceBinBytes != b.TraceBinBytes {
			return fmt.Errorf("%s/%s: trace emits %d bytes, baseline %d — encoding changed",
				c.Protocol, c.Duty, c.TraceBinBytes, b.TraceBinBytes)
		}
		for _, col := range []struct {
			name     string
			got, was int64
		}{
			{"plain run", c.NS, b.NS},
			{"telemetry-attached run", c.TelemetryNS, b.TelemetryNS},
			{"traced run", c.TraceBinNS, b.TraceBinNS},
		} {
			if lim := float64(col.was) * (1 + tol); float64(col.got) > lim {
				return fmt.Errorf("%s/%s: %s %.2fms regressed past baseline %.2fms +%.0f%%",
					c.Protocol, c.Duty, col.name, float64(col.got)/1e6, float64(col.was)/1e6, tol*100)
			}
		}
	}
	return nil
}

// measure runs the full grid and assembles the baseline document.
func measure(reps int) (*baseline, error) {
	g := topology.GreenOrbs(1)
	doc := &baseline{
		Generator: "cmd/engbench",
		Topology:  "greenorbs",
		Nodes:     g.N(),
		M:         10,
		Coverage:  0.99,
		Seed:      1,
		Reps:      reps,
	}
	for _, duty := range []struct {
		name   string
		period int
	}{
		{"1pct", 100},
		{"5pct", 20},
	} {
		scheds := schedule.AssignUniform(g.N(), duty.period, rngutil.New(1).SubName("schedule"))
		for _, name := range []string{"opt", "dbao", "of", "trickle", "dflood"} {
			c := benchCase{Protocol: name, Duty: duty.name, Period: duty.period}
			ns, res, err := timeCase(g, scheds, name, reps, nil)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, duty.name, err)
			}
			// The telemetry-on/off comparison: the same cell with a live
			// registry attached. Its result must stay bit-identical —
			// telemetry observes the engine, never steers it.
			telNS, telRes, err := timeCase(g, scheds, name, reps, telemetry.New())
			if err != nil {
				return nil, fmt.Errorf("%s/%s telemetry: %w", name, duty.name, err)
			}
			// Trace-emission cost: the same cell re-timed with a full event
			// trace streaming to a byte-counting sink. Results must again
			// stay bit-identical.
			binNS, binBytes, binRes, err := timeTraced(g, scheds, name, reps)
			if err != nil {
				return nil, fmt.Errorf("%s/%s trace: %w", name, duty.name, err)
			}
			c.NS, c.TelemetryNS = ns, telNS
			c.TraceBinNS, c.TraceBinBytes = binNS, binBytes
			c.TelemetryOverhead = float64(telNS)/float64(ns) - 1
			c.Slots = res.TotalSlots
			if !reflect.DeepEqual(res, telRes) {
				return nil, fmt.Errorf("%s/%s: attaching telemetry changed the result", name, duty.name)
			}
			if !reflect.DeepEqual(res, binRes) {
				return nil, fmt.Errorf("%s/%s: attaching a trace observer changed the result", name, duty.name)
			}
			c.Identical = true
			fmt.Printf("%-7s duty=%s  run=%8.2fms  telemetry=%+.1f%%  trace=%6.2fms (%d B)\n",
				name, duty.name, float64(ns)/1e6, c.TelemetryOverhead*100,
				float64(binNS)/1e6, binBytes)
			doc.Cases = append(doc.Cases, c)
		}
	}
	return doc, nil
}

// timeCase runs one (protocol, duty) cell reps times through the
// single-worker batch runner and returns the minimum wall-clock per run
// plus the (deterministic, rep-independent) simulation result. A non-nil
// reg attaches live telemetry to every run, measuring its overhead.
func timeCase(g *topology.Graph, scheds []*schedule.Schedule, name string, reps int, reg *telemetry.Registry) (int64, *sim.Result, error) {
	p, err := flood.New(name)
	if err != nil {
		return 0, nil, err
	}
	cfg := sim.Config{
		Graph:     g,
		Schedules: scheds,
		Protocol:  p,
		M:         10,
		Coverage:  0.99,
		Seed:      1,
		Telemetry: reg,
	}
	// Warm-up run: lets the protocol's Reset memoization (carrier-sense
	// matrix, energy-optimal tree) build once outside the timed region,
	// exactly as it amortizes across a sweep's runs.
	warm, _ := runner.Run(context.Background(), []sim.Config{cfg}, runner.Options{Workers: 1})
	if err := warm.Err(); err != nil {
		return 0, nil, err
	}
	var best time.Duration
	for i := 0; i < reps; i++ {
		rs, st := runner.Run(context.Background(), []sim.Config{cfg}, runner.Options{Workers: 1})
		if err := rs.Err(); err != nil {
			return 0, nil, err
		}
		if !rs[0].Res.Completed {
			return 0, nil, fmt.Errorf("run did not complete within %d slots", rs[0].Res.TotalSlots)
		}
		if i == 0 || st.Wall < best {
			best = st.Wall
		}
	}
	return best.Nanoseconds(), warm[0].Res, nil
}

// countWriter counts the bytes written through it and discards them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// timeTraced re-times a cell with a full event-trace writer attached,
// streaming to a byte-counting sink. It returns the minimum wall-clock
// per run, the (deterministic) bytes one run emits, and the simulation
// result. Each repetition gets a fresh writer — the encoder carries
// per-document state (it delta-encodes against previous records).
func timeTraced(g *topology.Graph, scheds []*schedule.Schedule, name string, reps int) (int64, int64, *sim.Result, error) {
	p, err := flood.New(name)
	if err != nil {
		return 0, 0, nil, err
	}
	one := func() (*sim.Result, time.Duration, int64, error) {
		cw := &countWriter{}
		w := tracebin.NewWriter(cw)
		cfg := sim.Config{
			Graph:     g,
			Schedules: scheds,
			Protocol:  p,
			M:         10,
			Coverage:  0.99,
			Seed:      1,
			Observer:  w,
		}
		rs, st := runner.Run(context.Background(), []sim.Config{cfg}, runner.Options{Workers: 1})
		if err := rs.Err(); err != nil {
			return nil, 0, 0, err
		}
		if err := w.Flush(); err != nil {
			return nil, 0, 0, err
		}
		return rs[0].Res, st.Wall, cw.n, nil
	}
	res, _, bytes, err := one() // warm-up, and the canonical byte count
	if err != nil {
		return 0, 0, nil, err
	}
	var best time.Duration
	for i := 0; i < reps; i++ {
		_, wall, n, err := one()
		if err != nil {
			return 0, 0, nil, err
		}
		if n != bytes {
			return 0, 0, nil, fmt.Errorf("trace emitted %d bytes on one run and %d on another — nondeterministic", bytes, n)
		}
		if i == 0 || wall < best {
			best = wall
		}
	}
	return best.Nanoseconds(), bytes, res, nil
}
