// Command engbench measures the engine's committed wall-clock baselines:
// BENCH_engine.json, the BenchmarkEngine grid (the 298-node GreenOrbs
// field × {OPT, DBAO, OF, Trickle, DFlood} × duty {1%, 5%}, M = 10), and
// with -scale BENCH_scale.json, the same engine on 10k- and 100k-node
// scaled GreenOrbs instances.
//
// Both files are one document type of one row type, measured by one loop.
// Each node count's topology is built -reps times, and its rank view
// (CSR.Ranked, OPT's and DBAO's one-time cost per graph) as often, before
// any of its rows runs. A row is then run once untimed, which fixes its
// reference result, slot horizon and heap cost, and -reps times timed.
// Each timed rep runs the plain run, the run with a telemetry registry
// attached and the run with a full event trace (internal/tracebin)
// attached, back to back, so host drift hits all three columns alike.
// Every timed column records its median and quartiles. Every instrumented
// run must reproduce the reference result field for field, and every
// traced run the same byte count, or the command fails: a committed
// baseline certifies that instrumentation never steers the engine.
//
// With -scale, when the document is written, the whole `figures -fig
// scale` computation is also timed -reps times and recorded as
// figure_scale, but not guarded. Every document records the host it was
// measured on.
//
// Usage:
//
//	go run ./cmd/engbench [-reps 5] [-o BENCH_engine.json]
//	go run ./cmd/engbench -scale [-reps 5] [-o BENCH_scale.json]
//	go run ./cmd/engbench [-scale] -against BENCH_engine.json -o ""
//
// With -against, the fresh measurement is checked against a committed
// baseline (see guard); -o "" skips writing, turning the command into a
// pure regression guard.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"ldcflood/internal/experiments"
	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/stats"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
)

// timing summarizes repeated wall-clock measurements of one computation.
type timing struct {
	MedianNS int64 `json:"median_ns"`
	Q1NS     int64 `json:"q1_ns"`
	Q3NS     int64 `json:"q3_ns"`
}

// row is one measured cell: a protocol flooding M packets over a
// scaled-GreenOrbs topology of Nodes nodes at schedule period Period.
type row struct {
	// Name is protocol/nodes/period, the key the guard matches rows by.
	Name     string `json:"name"`
	Protocol string `json:"protocol"`
	Nodes    int    `json:"nodes"`
	Links    int    `json:"links"`
	Period   int    `json:"period"`
	M        int    `json:"m"`
	// Build and Rank time building the topology and its rank view,
	// shared by every row of the same node count.
	Build timing `json:"build"`
	Rank  timing `json:"rank"`
	// Plain, Telemetry and Traced time one run with nothing, a telemetry
	// registry and a full event trace attached.
	Plain     timing `json:"plain"`
	Telemetry timing `json:"telemetry"`
	Traced    timing `json:"traced"`
	// Slots is the run's simulated-slot horizon and TraceBinBytes the
	// bytes its trace encodes to; both are deterministic.
	Slots         int64 `json:"slots"`
	TraceBinBytes int64 `json:"trace_bin_bytes"`
	// Identical records that every instrumented run reproduced the
	// reference result; engbench fails before writing otherwise, so a
	// committed file always says true.
	Identical bool `json:"identical"`
	// BytesPerNode is the heap the reference run allocates divided by the
	// node count: the O(n+m)-memory evidence.
	BytesPerNode float64 `json:"bytes_per_node"`
}

// host describes the machine a document was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// document is a BENCH_engine.json or BENCH_scale.json file.
type document struct {
	Generator string  `json:"generator"`
	Host      host    `json:"host"`
	Coverage  float64 `json:"coverage"`
	Seed      uint64  `json:"seed"`
	Reps      int     `json:"reps"`
	Rows      []row   `json:"rows"`
	// FigureScale times `figures -fig scale` end to end in-process
	// (-scale only). Recorded, not guarded.
	FigureScale *timing `json:"figure_scale,omitempty"`
}

// cell is one grid entry: a protocol on a node count, at a schedule
// period and packet count.
type cell struct {
	nodes    int
	protocol string
	period   int
	m        int
}

// engineGrid is the BenchmarkEngine grid. floodbench's workloads do not
// cover it: they flood on other seeds and packet counts, and carry no
// exact horizon or trace-byte guard and no instrument overhead column.
var engineGrid = func() []cell {
	var g []cell
	for _, period := range []int{100, 20} {
		for _, p := range []string{"opt", "dbao", "of", "trickle", "dflood"} {
			g = append(g, cell{topology.GreenOrbsNodes, p, period, 10})
		}
	}
	return g
}()

// scaleGrid is the -scale grid. Period 100 ≈ 1% duty, the paper's hardest
// regime and the one where the awake-set bucketing matters most, for OPT
// and DBAO; period 20 (5% duty) and a single packet for Trickle and
// DFlood, the configuration of `figures -fig scale`, whose cost they
// dominate.
var scaleGrid = []cell{
	{10000, "opt", 100, 4},
	{10000, "dbao", 100, 4},
	{100000, "opt", 100, 4},
	{100000, "dbao", 100, 4},
	{10000, "dflood", 20, 1},
	{10000, "trickle", 20, 1},
	{100000, "dflood", 20, 1},
	{100000, "trickle", 20, 1},
}

func main() {
	reps := flag.Int("reps", 5, "timed repetitions per row, topology build and figure timing; the median and quartiles are reported")
	out := flag.String("o", "BENCH_engine.json", "output file, BENCH_scale.json by default with -scale (empty skips writing)")
	against := flag.String("against", "", "committed baseline to guard against (empty skips the check)")
	scale := flag.Bool("scale", false, "measure the 10k/100k-node grid (BENCH_scale.json) instead of the 298-node grid")
	flag.Parse()
	if *scale && *out == "BENCH_engine.json" { // untouched default: scale mode names its own file
		*out = "BENCH_scale.json"
	}
	if err := run(*scale, *reps, *out, *against); err != nil {
		fmt.Fprintln(os.Stderr, "engbench:", err)
		os.Exit(1)
	}
}

func run(scale bool, reps int, out, against string) error {
	if reps < 1 {
		return fmt.Errorf("-reps %d: need at least 1", reps)
	}
	grid, gen := engineGrid, "cmd/engbench"
	if scale {
		grid, gen = scaleGrid, "cmd/engbench -scale"
	}
	doc, err := measure(grid, reps)
	if err != nil {
		return err
	}
	doc.Generator = gen
	if scale && out != "" { // the guard never reads figure_scale
		if doc.FigureScale, err = measureFigureScale(reps); err != nil {
			return fmt.Errorf("figure scale: %w", err)
		}
	}
	if against != "" {
		base, err := load(against)
		if err != nil {
			return err
		}
		if err := guard(os.Stdout, doc, base); err != nil {
			return fmt.Errorf("%s: %w", against, err)
		}
		fmt.Printf("baseline %s holds\n", against)
	}
	if out == "" {
		return nil
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", out, len(doc.Rows))
	return nil
}

// load reads a committed baseline, refusing fields this document type
// does not have (such as an older format's).
func load(path string) (*document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var d document
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// hostInfo reads the CPU model from /proc/cpuinfo (empty where that file
// does not exist) and the Go runtime's view of the machine.
func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// summarize reduces wall-clock samples in nanoseconds to their median and
// quartiles.
func summarize(ns []float64) timing {
	return timing{
		MedianNS: int64(stats.Percentile(ns, 50)),
		Q1NS:     int64(stats.Percentile(ns, 25)),
		Q3NS:     int64(stats.Percentile(ns, 75)),
	}
}

// timeReps times f reps times, each from a collected heap.
func timeReps(reps int, f func() error) (timing, error) {
	ns := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return timing{}, err
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds()))
	}
	return summarize(ns), nil
}

// topo is one node count's topology and the timings of building it.
type topo struct {
	g           *topology.Graph
	build, rank timing
}

// buildTopology builds the nodes-node scaled-GreenOrbs instance reps
// times, then its rank view as often, each on a fresh CSR so none is
// served from the memoised view. The graph's own view is built last, so
// no row's measurement depends on the grid order.
func buildTopology(nodes, reps int) (*topo, error) {
	t := &topo{}
	var err error
	t.build, err = timeReps(reps, func() error {
		g, err := topology.GenerateGreenOrbs(topology.ScaledGreenOrbsConfig(nodes), 1)
		t.g = g
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("build %d: %w", nodes, err)
	}
	csrs := make([]*topology.CSR, reps)
	for i := range csrs {
		csrs[i] = topology.NewCSR(t.g)
	}
	i := 0
	t.rank, _ = timeReps(reps, func() error { csrs[i].Ranked(); i++; return nil })
	t.g.CSR().Ranked()
	fmt.Printf("greenorbs %d: %d links, build median=%.1fms IQR=%.1fms, rank view %.1fms\n",
		nodes, t.g.NumLinks(), ms(t.build.MedianNS), ms(t.build.Q3NS-t.build.Q1NS), ms(t.rank.MedianNS))
	return t, nil
}

// measure builds each node count's topology once and measures every row
// of the grid on it.
func measure(grid []cell, reps int) (*document, error) {
	doc := &document{Host: hostInfo(), Coverage: 0.99, Seed: 1, Reps: reps}
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s\n", doc.Host.CPU, doc.Host.NProc, doc.Host.GOMAXPROCS, doc.Host.Go)
	topos := make(map[int]*topo)
	for _, c := range grid {
		t := topos[c.nodes]
		if t == nil {
			var err error
			if t, err = buildTopology(c.nodes, reps); err != nil {
				return nil, err
			}
			topos[c.nodes] = t
		}
		r, err := measureRow(t, c, doc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		doc.Rows = append(doc.Rows, r)
	}
	return doc, nil
}

// countWriter counts the bytes written through it and discards them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// measureRow is the one measuring loop: an untimed reference run, then
// doc.Reps reps of the plain, telemetry-attached and traced runs back to
// back.
func measureRow(t *topo, c cell, doc *document) (row, error) {
	g := t.g
	r := row{
		Name:     fmt.Sprintf("%s/%d/%d", c.protocol, g.N(), c.period),
		Protocol: c.protocol,
		Nodes:    g.N(),
		Links:    g.NumLinks(),
		Period:   c.period,
		M:        c.m,
		Build:    t.build,
		Rank:     t.rank,
	}
	// One protocol instance serves every run of the row, so memoized
	// Reset state (OF's energy-optimal tree) is built by the reference
	// run, outside the timed region, as it amortizes across a sweep.
	p, err := flood.New(c.protocol)
	if err != nil {
		return r, err
	}
	cfg := sim.Config{
		Graph:     g,
		Schedules: schedule.AssignUniform(g.N(), c.period, rngutil.New(doc.Seed).SubName("schedule")),
		Protocol:  p,
		M:         c.m,
		Coverage:  doc.Coverage,
		Seed:      doc.Seed,
		MaxSlots:  2000000,
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, err := sim.Run(cfg)
	if err != nil {
		return r, err
	}
	runtime.ReadMemStats(&after)
	r.BytesPerNode = float64(after.TotalAlloc-before.TotalAlloc) / float64(g.N())
	if !ref.Completed {
		return r, fmt.Errorf("did not complete within %d slots", cfg.MaxSlots)
	}
	r.Slots = ref.TotalSlots

	// check times one run of cfg and requires it to reproduce ref.
	check := func(cfg sim.Config, what string) (time.Duration, error) {
		runtime.GC()
		start := time.Now()
		res, err := sim.Run(cfg)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if !reflect.DeepEqual(res, ref) {
			return 0, fmt.Errorf("the %s run's result differs from the reference run's", what)
		}
		return d, nil
	}
	reg := telemetry.New()
	var plain, tel, traced []float64
	for i := 0; i < doc.Reps; i++ {
		d, err := check(cfg, "plain")
		if err != nil {
			return r, err
		}
		plain = append(plain, float64(d.Nanoseconds()))

		tcfg := cfg
		tcfg.Telemetry = reg
		if d, err = check(tcfg, "telemetry-attached"); err != nil {
			return r, err
		}
		tel = append(tel, float64(d.Nanoseconds()))

		// A fresh writer per run: the encoder delta-encodes against the
		// records before it.
		cw := &countWriter{}
		w := tracebin.NewWriter(cw)
		tcfg = cfg
		tcfg.Observer = w
		if d, err = check(tcfg, "traced"); err != nil {
			return r, err
		}
		if err := w.Flush(); err != nil {
			return r, err
		}
		if i > 0 && cw.n != r.TraceBinBytes {
			return r, fmt.Errorf("trace emitted %d bytes on one run and %d on another: nondeterministic", r.TraceBinBytes, cw.n)
		}
		r.TraceBinBytes = cw.n
		traced = append(traced, float64(d.Nanoseconds()))
	}
	r.Plain, r.Telemetry, r.Traced = summarize(plain), summarize(tel), summarize(traced)
	r.Identical = true
	fmt.Printf("%-18s plain=%9.2fms (IQR %6.2f)  telemetry=%9.2fms  traced=%9.2fms (%d B)  slots=%d\n",
		r.Name, ms(r.Plain.MedianNS), ms(r.Plain.Q3NS-r.Plain.Q1NS), ms(r.Telemetry.MedianNS),
		ms(r.Traced.MedianNS), r.TraceBinBytes, r.Slots)
	return r, nil
}

// measureFigureScale times experiments.TrickleScalability at the options
// `figures -fig scale` passes by default, reps times.
func measureFigureScale(reps int) (*timing, error) {
	t, err := timeReps(reps, func() error {
		_, err := experiments.TrickleScalability(experiments.PaperSimOptions())
		return err
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("figures -fig scale: median=%.2fs  IQR=%.2fs\n", float64(t.MedianNS)/1e9, float64(t.Q3NS-t.Q1NS)/1e9)
	return &t, nil
}

// minGuardReps is the fewest fresh reps whose median the guard compares
// with a baseline's quartiles.
const minGuardReps = 3

// fenceFactor sets the wall-clock bound: Tukey's far-out fence above the
// baseline's upper quartile.
const fenceFactor = 3

// bound is the largest fresh median a timed column may have: the
// committed upper quartile plus fenceFactor interquartile ranges.
func bound(t timing) int64 { return t.Q3NS + fenceFactor*(t.Q3NS-t.Q1NS) }

// guard compares a fresh document with a committed baseline and returns
// every failure, joined. The two must hold the same rows, and each row's
// slot horizon, link count and trace byte count must match exactly: they
// are deterministic, so drift means the engine's behavior, the topology
// generator or an encoding changed, whatever the host. Wall clock is compared only when both were
// measured on the same host and doc has at least minGuardReps reps; then
// a row's build, plain, telemetry or traced median fails past bound of the
// baseline's column. measure copies a node count's one topology build
// timing into each of its rows, so a build, known by its node count and
// timing, is checked once, under the first row that carries it. guard
// says on w which halves it checked.
func guard(w io.Writer, doc, base *document) error {
	var errs []string
	fail := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }
	wall := doc.Host == base.Host && doc.Reps >= minGuardReps
	type build struct {
		nodes int
		got   timing
	}
	builds := make(map[build]bool)
	byName := make(map[string]row, len(base.Rows))
	for _, b := range base.Rows {
		byName[b.Name] = b
	}
	for _, r := range doc.Rows {
		b, ok := byName[r.Name]
		if !ok {
			fail("%s: not in the baseline", r.Name)
			continue
		}
		delete(byName, r.Name)
		if r.Slots != b.Slots {
			fail("%s: slot horizon %d differs from baseline %d: engine behavior changed", r.Name, r.Slots, b.Slots)
		}
		if r.TraceBinBytes != b.TraceBinBytes {
			fail("%s: trace emits %d bytes, baseline %d: encoding changed", r.Name, r.TraceBinBytes, b.TraceBinBytes)
		}
		if r.Links != b.Links {
			fail("%s: topology has %d links, baseline %d: generator changed", r.Name, r.Links, b.Links)
		}
		if !wall {
			continue
		}
		for _, col := range []struct {
			name     string
			got, was timing
		}{
			{"build", r.Build, b.Build},
			{"plain", r.Plain, b.Plain},
			{"telemetry", r.Telemetry, b.Telemetry},
			{"traced", r.Traced, b.Traced},
		} {
			if col.name == "build" {
				k := build{r.Nodes, r.Build}
				if builds[k] {
					continue
				}
				builds[k] = true
			}
			if lim := bound(col.was); col.got.MedianNS > lim {
				fail("%s: %s median %.2fms exceeds the baseline's bound %.2fms (Q1 %.2fms, Q3 %.2fms)",
					r.Name, col.name, ms(col.got.MedianNS), ms(lim), ms(col.was.Q1NS), ms(col.was.Q3NS))
			}
		}
	}
	for _, b := range base.Rows {
		if _, missing := byName[b.Name]; missing {
			fail("%s: baseline row missing from the new run", b.Name)
		}
	}
	switch {
	case wall:
		fmt.Fprintf(w, "guard: slots, links, trace bytes and wall clock (bound Q3 + %d×IQR) checked\n", fenceFactor)
	case doc.Host != base.Host:
		fmt.Fprintf(w, "guard: slots, links and trace bytes checked; wall clock not compared: host %+v differs from the baseline's %+v\n", doc.Host, base.Host)
	default:
		fmt.Fprintf(w, "guard: slots, links and trace bytes checked; wall clock not compared: %d reps, fewer than %d\n", doc.Reps, minGuardReps)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d failure(s):\n  %s", len(errs), strings.Join(errs, "\n  "))
	}
	return nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
