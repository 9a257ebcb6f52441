// Command floodbench is the repository's end-to-end benchmark. It times
// single-lane flooding sweeps — one goroutine running Go code, one
// batch-runner worker, cells simulated one after another — on four
// workloads, and checks every result it produces.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	sh floodbench/run.sh --workload dbao-2pct --seed 1 --seconds 10 --trace 0
//
// A run builds its inputs from --seed (the set-up), runs one reference
// batch and verifies it, then repeats the batch until --seconds have
// passed, repeating the set-up between batches too. The last line on
// standard output is one JSON object {"correct", "attempted", "failed",
// "metrics"}, where attempted and failed count cells (single flood
// simulations).
//
// With --trace 0 the metrics are the end-to-end ones: batch_best_ms, the
// wall time of the run's fastest batch, and setup_s, its fastest set-up.
// Fastest, not median, because the work is deterministic, so every
// repetition does the same work: on a shared host, neighbors' load only
// ever slows a repetition down, and it shifts a run's median wall time by
// tens of percent from one minute to the next while barely moving its
// fastest repetition. For the same reason the set-up is repeated through
// the whole run rather than only at its start. With --trace 1 the batches run
// with span recording (spans.go) and telemetry attached, and the metrics
// are per layer, including the traced batches' median and 90th percentile;
// the spans are also written to .bench_build/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"ldcflood/internal/runner"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
)

const (
	// setupShare caps the share of a run's wall time spent repeating the
	// set-up between batches.
	setupShare = 0.25
	// minBatches is the fewest timed batches a run makes, however short
	// --seconds is.
	minBatches = 20
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// wrong records a failed check; cell -1 means the whole batch.
func (r *report) wrong(w workload, cell int, err error) {
	fmt.Fprintf(os.Stderr, "floodbench: %s cell %d: %v\n", w.name, cell, err)
	r.Correct = false
}

func main() {
	name := flag.String("workload", "", "workload: dbao-2pct, of-5pct, dflood-5pct or opt-10k")
	seed := flag.Uint64("seed", 1, "input seed; the same seed always generates the same inputs")
	seconds := flag.Float64("seconds", 10, "how long to repeat the timed batch, set-up excluded")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 records spans and reports per-layer metrics")
	flag.Parse()

	// Single lane: one thread runs Go code, so the benchmark never competes
	// with itself (or the garbage collector) for the machine's other cores.
	runtime.GOMAXPROCS(1)

	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	rep, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "floodbench:", err)
	os.Exit(1)
}

// measure performs one benchmark run of w.
func measure(w workload, seed uint64, budget time.Duration, traced bool) (*report, error) {
	var setup, topo []float64 // seconds, milliseconds
	var setupSpent time.Duration
	// setUp builds the inputs once more and records the time it took.
	setUp := func() (*inputs, error) {
		runtime.GC()
		t0 := time.Now()
		in, err := w.build(seed)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		setupSpent += d
		setup = append(setup, d.Seconds())
		topo = append(topo, ms(in.topology))
		return in, nil
	}
	in, err := setUp()
	if err != nil {
		return nil, err
	}

	rep := &report{Correct: true, Metrics: map[string]metric{}}
	want, tr, err := verifyReference(w, in, rep)
	if err != nil {
		return nil, err
	}

	var batchMS []float64
	var spans []batchSpans
	start := time.Now()
	deadline := start.Add(budget)
	for n := 0; n < minBatches || time.Now().Before(deadline); n++ {
		if setupSpent < time.Duration(setupShare*float64(time.Since(start))) {
			if _, err := setUp(); err != nil {
				return nil, err
			}
		}
		// Every batch starts from a collected heap, so one batch's garbage
		// never lands on the next one's clock.
		runtime.GC()
		var clk spanClock
		var opts runner.Options
		var wrap func(sim.Protocol) sim.Protocol
		var reg *telemetry.Registry
		if traced {
			reg = telemetry.New()
			opts.Progress = func(runner.Progress) { clk.jobEnd() }
			wrap = clk.wrap
		}
		t0 := time.Now()
		jobs, err := w.jobs(in, wrap, reg)
		if err != nil {
			return nil, err
		}
		out, err := runBatch(jobs, opts)
		dt := time.Since(t0)
		rep.Attempted += len(jobs)
		if err != nil {
			rep.Failed += len(jobs)
			rep.wrong(w, -1, err)
			continue
		}
		for i, r := range out.results {
			if fingerprint(r) != want[i] {
				rep.Failed++
				rep.wrong(w, i, fmt.Errorf("result differs from the reference batch"))
			}
		}
		batchMS = append(batchMS, ms(dt))
		if traced {
			spans = append(spans, clk.spans(dt, out, reg))
		}
	}
	if len(batchMS) == 0 {
		return nil, fmt.Errorf("every timed batch failed")
	}

	m := rep.Metrics
	if !traced {
		m["batch_best_ms"] = metric{quantile(batchMS, 0), "ms"}
		m["setup_s"] = metric{quantile(setup, 0), "s"}
		return rep, nil
	}
	if err := writeSpans(w.name, seed, spans); err != nil {
		return nil, err
	}
	// Per-batch span and count metrics are medians over the traced batches.
	per := func(unit string, f func(s batchSpans) float64) metric {
		v := make([]float64, len(spans))
		for i, s := range spans {
			v[i] = f(s)
		}
		return metric{quantile(v, 0.5), unit}
	}
	msOf := func(ns int64) float64 { return float64(ns) / 1e6 }
	m["traced_batch_best_ms"] = metric{quantile(batchMS, 0), "ms"}
	m["traced_batch_p50_ms"] = metric{quantile(batchMS, 0.5), "ms"}
	m["traced_batch_p90_ms"] = metric{quantile(batchMS, 0.9), "ms"}
	m["topology_build_ms"] = metric{quantile(topo, 0.5), "ms"}
	m["runner_self_ms"] = per("ms", func(s batchSpans) float64 { return msOf(s.Batch - s.Job - s.Combine) })
	m["sim_engine_self_ms"] = per("ms", func(s batchSpans) float64 { return msOf(s.Job - s.Reset - s.Decide) })
	m["flood_reset_ms"] = per("ms", func(s batchSpans) float64 { return msOf(s.Reset) })
	m["flood_decide_ms"] = per("ms", func(s batchSpans) float64 { return msOf(s.Decide) })
	m["metrics_combine_ms"] = per("ms", func(s batchSpans) float64 { return msOf(s.Combine) })
	m["flood_decide_calls"] = per("count", func(s batchSpans) float64 { return float64(s.DecideCalls) })
	m["sim_slots_total"] = per("count", func(s batchSpans) float64 { return float64(s.SlotsTotal) })
	m["sim_slots_visited"] = per("count", func(s batchSpans) float64 { return float64(s.SlotsVisited) })
	m["sim_tx_attempts"] = per("count", func(s batchSpans) float64 { return float64(s.TxAttempts) })
	m["sim_tx_success_ratio"] = per("ratio", func(s batchSpans) float64 { return float64(s.TxSuccess) / float64(s.TxAttempts) })
	m["tracebin_encode_ms"] = metric{ms(tr.encode), "ms"}
	m["tracebin_decode_ms"] = metric{ms(tr.decode), "ms"}
	m["tracebin_bytes_per_event"] = metric{float64(tr.bytes) / float64(max(tr.events, 1)), "B/event"}
	return rep, nil
}

// verifyReference runs one untimed batch and checks it against the
// engine-independent invariants and, cell by cell, against its own binary
// trace. It returns the fingerprints every timed batch must reproduce and
// the trace checks' totals.
func verifyReference(w workload, in *inputs, rep *report) ([]uint64, traceCheck, error) {
	var tr traceCheck
	jobs, err := w.jobs(in, nil, nil)
	if err != nil {
		return nil, tr, err
	}
	ref, err := runBatch(jobs, runner.Options{})
	if err != nil {
		return nil, tr, fmt.Errorf("reference batch: %w", err)
	}
	o, err := newOracle(in.graph)
	if err != nil {
		return nil, tr, err
	}
	want := make([]uint64, len(ref.results))
	rep.Attempted += len(jobs)
	for i, r := range ref.results {
		want[i] = fingerprint(r)
		err := checkResult(r, w.m, in.graph.N(), o)
		var tc *traceCheck
		if err == nil {
			tc, err = checkTrace(jobs[i], w.protocol, r)
		}
		if err != nil {
			rep.Failed++
			rep.wrong(w, i, err)
			continue
		}
		tr.encode += tc.encode
		tr.decode += tc.decode
		tr.events += tc.events
		tr.bytes += tc.bytes
	}
	if ref.agg.CoveredFraction != 1 {
		rep.wrong(w, -1, fmt.Errorf("aggregate covered fraction %v, want 1", ref.agg.CoveredFraction))
	}
	return want, tr, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics, or NaN for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
