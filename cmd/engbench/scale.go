package main

// The -scale mode: large-topology wall-clock baseline BENCH_scale.json.
//
// Where BENCH_engine.json times the paper-scale 298-node grid, the scale
// grid times the engine on 10k- and 100k-node ScaledGreenOrbs instances,
// each cell at its own duty cycle and packet count: OPT and DBAO flood
// M = 4 at 1% duty, and the timer protocols Trickle and DFlood flood the
// single packet of `figures -fig scale` at 5% duty. Every cell is one
// row, the engine run inline, the only way it runs.
//
// Every number is measured wall clock. Each node count's topology is
// built -scale-reps times first, and every row of that size records the
// builds' median and quartiles (build_ns, build_q1_ns, build_q3_ns): for a
// 100k-node flood the build is a cost the user waits for too. The median
// of as many rank-view builds (CSR.Ranked, OPT's and DBAO's one-time
// cost per graph) is recorded beside it as rank_ns, and the graph's view
// is built then, so no row's measurement depends on the grid order. Each
// row then runs -scale-reps times and records the median and quartiles of
// its runs; every run must reproduce the first one's Result, or the
// command fails.
//
// After the grid, the whole `figures -fig scale` computation
// (experiments.TrickleScalability at its defaults: topology builds plus
// twelve floods on the batch runner) runs -scale-reps times, and its
// median and quartiles are recorded as the document's figure_scale entry.
// It is the wall clock a user of the figure waits for, recorded but not
// guarded. The document records the host (CPU model, nproc, GOMAXPROCS),
// without which none of these numbers means much.

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"time"

	"ldcflood/internal/experiments"
	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/stats"
	"ldcflood/internal/topology"
)

// scaleRow is one engine configuration of one grid cell.
type scaleRow struct {
	// Name is protocol/nodes/engine, the key the guard matches rows by.
	Name     string `json:"name"`
	Protocol string `json:"protocol"`
	Nodes    int    `json:"nodes"`
	Links    int    `json:"links"`
	// Period is the cell's schedule period (duty 1/Period) and M its
	// packet count.
	Period int `json:"period"`
	M      int `json:"m"`
	// BuildNS, BuildQ1NS and BuildQ3NS summarize the wall clock of
	// building the row's topology (GenerateGreenOrbs), shared by every
	// row of the same node count.
	BuildNS   int64 `json:"build_ns,omitempty"`
	BuildQ1NS int64 `json:"build_q1_ns,omitempty"`
	BuildQ3NS int64 `json:"build_q3_ns,omitempty"`
	// RankNS is the median wall clock of building the topology's rank
	// view (CSR.Ranked), which OPT and DBAO pay once per graph on first
	// use. The view is built before any row runs, so neither the timed
	// runs nor BytesPerNode include it. Recorded, not guarded.
	RankNS int64 `json:"rank_ns,omitempty"`
	Reps   int   `json:"reps"`
	// MedianNS, Q1NS and Q3NS summarize the row's per-run wall clock.
	MedianNS int64 `json:"median_ns"`
	Q1NS     int64 `json:"q1_ns"`
	Q3NS     int64 `json:"q3_ns"`
	// Slots is the run's simulated-slot horizon, deterministic per row.
	Slots int64 `json:"slots"`
	// BytesPerNode is the heap one run allocates divided by the node
	// count — the O(n+m)-memory evidence.
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`
}

// scaleTiming summarizes repeated wall-clock measurements of one
// computation.
type scaleTiming struct {
	Reps     int   `json:"reps"`
	MedianNS int64 `json:"median_ns"`
	Q1NS     int64 `json:"q1_ns"`
	Q3NS     int64 `json:"q3_ns"`
}

// scaleHost describes the machine a baseline was measured on.
type scaleHost struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// scaleBaseline is the BENCH_scale.json document.
type scaleBaseline struct {
	Generator string     `json:"generator"`
	Host      scaleHost  `json:"host"`
	Coverage  float64    `json:"coverage"`
	Seed      int64      `json:"seed"`
	Rows      []scaleRow `json:"rows"`
	// FigureScale times `figures -fig scale` end to end in-process.
	// Recorded, not guarded.
	FigureScale *scaleTiming `json:"figure_scale,omitempty"`
}

// scaleCell is one measured cell: a protocol on a node count, at a
// schedule period and packet count.
type scaleCell struct {
	nodes    int
	protocol string
	period   int
	m        int
}

// scaleGrid defines the measured cells. Period 100 ≈ 1% duty, the paper's
// hardest regime and the one where the awake-set bucketing matters most,
// for OPT and DBAO; period 20 (5% duty) and a single packet for Trickle
// and DFlood, the configuration of `figures -fig scale`, whose cost they
// dominate.
var scaleGrid = []scaleCell{
	{10000, "opt", 100, 4},
	{10000, "dbao", 100, 4},
	{100000, "opt", 100, 4},
	{100000, "dbao", 100, 4},
	{10000, "dflood", 20, 1},
	{10000, "trickle", 20, 1},
	{100000, "dflood", 20, 1},
	{100000, "trickle", 20, 1},
}

func runScale(out, against string, tol float64, reps int) error {
	doc := &scaleBaseline{
		Generator: "cmd/engbench -scale",
		Host:      hostInfo(),
		Coverage:  0.99,
		Seed:      1,
	}
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d\n", doc.Host.CPU, doc.Host.NProc, doc.Host.GOMAXPROCS)
	builds := make(map[int]*scaleBuild)
	for _, cell := range scaleGrid {
		b := builds[cell.nodes]
		if b == nil {
			var err error
			if b, err = buildScaleTopology(cell.nodes, reps); err != nil {
				return fmt.Errorf("build %d: %w", cell.nodes, err)
			}
			builds[cell.nodes] = b
		}
		row, err := measureScaleCell(b, cell, reps)
		if err != nil {
			return fmt.Errorf("%s/%d: %w", cell.protocol, cell.nodes, err)
		}
		doc.Rows = append(doc.Rows, row)
	}
	builds = nil // the figure builds its own graphs; let these go
	fig, err := measureFigureScale(reps)
	if err != nil {
		return fmt.Errorf("figure scale: %w", err)
	}
	doc.FigureScale = fig
	if against != "" {
		data, err := os.ReadFile(against)
		if err != nil {
			return err
		}
		var base scaleBaseline
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("%s: %w", against, err)
		}
		if err := guardScale(doc, &base, tol); err != nil {
			return fmt.Errorf("%s: %w", against, err)
		}
		fmt.Printf("scale baseline %s holds within %.0f%%\n", against, tol*100)
	}
	if out == "" {
		return nil
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", out, len(doc.Rows))
	return nil
}

// hostInfo reads the CPU model from /proc/cpuinfo (empty where that file
// does not exist) and the Go runtime's view of the machine.
func hostInfo() scaleHost {
	h := scaleHost{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
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

// scaleConfig assembles the simulation config for one cell.
func scaleConfig(g *topology.Graph, scheds []*schedule.Schedule, protocol string, m int) (sim.Config, error) {
	p, err := flood.New(protocol)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Graph:     g,
		Schedules: scheds,
		Protocol:  p,
		M:         m,
		Coverage:  0.99,
		Seed:      1,
		MaxSlots:  2000000,
	}, nil
}

// scaleBuild is one node count's topology and the wall clock of building
// it: median and quartiles over the builds, and the median rank-view build.
type scaleBuild struct {
	g              *topology.Graph
	median, q1, q3 int64
	rank           int64
}

// buildScaleTopology builds the nodes-node ScaledGreenOrbs instance reps
// times (at least once), timing each build from a collected heap.
func buildScaleTopology(nodes, reps int) (*scaleBuild, error) {
	fmt.Printf("building scaled-greenorbs %d...\n", nodes)
	b := &scaleBuild{}
	var times []float64
	for r := 0; r < max(reps, 1); r++ {
		runtime.GC()
		start := time.Now()
		g, err := topology.GenerateGreenOrbs(topology.ScaledGreenOrbsConfig(nodes), 1)
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		times = append(times, float64(d.Nanoseconds()))
		b.g = g
	}
	b.median = int64(stats.Percentile(times, 50))
	b.q1 = int64(stats.Percentile(times, 25))
	b.q3 = int64(stats.Percentile(times, 75))
	// Each rank build runs on a fresh CSR, so none is served from the
	// memoised view.
	times = times[:0]
	for r := 0; r < max(reps, 1); r++ {
		c := topology.NewCSR(b.g)
		runtime.GC()
		start := time.Now()
		c.Ranked()
		times = append(times, float64(time.Since(start).Nanoseconds()))
	}
	b.rank = int64(stats.Percentile(times, 50))
	b.g.CSR().Ranked()
	fmt.Printf("scaled-greenorbs %d: %d links, build median=%.1fms IQR=%.1fms, rank view %.1fms\n",
		nodes, b.g.NumLinks(), float64(b.median)/1e6, float64(b.q3-b.q1)/1e6, float64(b.rank)/1e6)
	return b, nil
}

// measureScaleCell times the cell on the built topology.
func measureScaleCell(b *scaleBuild, cell scaleCell, reps int) (scaleRow, error) {
	g, protocol := b.g, cell.protocol
	scheds := schedule.AssignUniform(g.N(), cell.period, rngutil.New(1).SubName("schedule"))
	cfg, err := scaleConfig(g, scheds, protocol, cell.m)
	if err != nil {
		return scaleRow{}, err
	}
	row := scaleRow{
		Name:      fmt.Sprintf("%s/%d", protocol, g.N()),
		Protocol:  protocol,
		Nodes:     g.N(),
		Links:     g.NumLinks(),
		Period:    cell.period,
		M:         cell.m,
		BuildNS:   b.median,
		BuildQ1NS: b.q1,
		BuildQ3NS: b.q3,
		RankNS:    b.rank,
		Reps:      reps,
	}

	// Heap cost of one run, measured before any timing so the allocation
	// profile is cold-start-representative.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, err := sim.Run(cfg)
	if err != nil {
		return row, err
	}
	runtime.ReadMemStats(&after)
	row.BytesPerNode = float64(after.TotalAlloc-before.TotalAlloc) / float64(g.N())
	if !ref.Completed {
		return row, fmt.Errorf("%s did not complete within %d slots", row.Name, cfg.MaxSlots)
	}
	row.Slots = ref.TotalSlots

	var times []float64
	for r := 0; r < reps; r++ {
		// A fresh protocol per run keeps memoized state from crossing runs.
		if cfg.Protocol, err = flood.New(protocol); err != nil {
			return row, err
		}
		runtime.GC()
		start := time.Now()
		res, err := sim.Run(cfg)
		d := time.Since(start)
		if err != nil {
			return row, err
		}
		if !reflect.DeepEqual(res, ref) {
			return row, fmt.Errorf("%s: run %d diverged from the first run", row.Name, r)
		}
		times = append(times, float64(d.Nanoseconds()))
	}
	row.MedianNS = int64(stats.Percentile(times, 50))
	row.Q1NS = int64(stats.Percentile(times, 25))
	row.Q3NS = int64(stats.Percentile(times, 75))
	fmt.Printf("%-16s median=%9.1fms  IQR=%7.1fms  slots=%d\n",
		row.Name, float64(row.MedianNS)/1e6, float64(row.Q3NS-row.Q1NS)/1e6, row.Slots)
	return row, nil
}

// measureFigureScale times experiments.TrickleScalability at the options
// `figures -fig scale` passes by default, reps times (at least once).
func measureFigureScale(reps int) (*scaleTiming, error) {
	var times []float64
	for r := 0; r < max(reps, 1); r++ {
		runtime.GC()
		start := time.Now()
		if _, err := experiments.TrickleScalability(experiments.PaperSimOptions()); err != nil {
			return nil, err
		}
		times = append(times, float64(time.Since(start).Nanoseconds()))
	}
	t := &scaleTiming{
		Reps:     len(times),
		MedianNS: int64(stats.Percentile(times, 50)),
		Q1NS:     int64(stats.Percentile(times, 25)),
		Q3NS:     int64(stats.Percentile(times, 75)),
	}
	fmt.Printf("figures -fig scale: median=%.2fs  IQR=%.2fs\n", float64(t.MedianNS)/1e9, float64(t.Q3NS-t.Q1NS)/1e9)
	return t, nil
}

// guardScale compares a fresh scale measurement against a baseline. The
// two must hold the same rows; slot horizons must match exactly (they are
// deterministic, so drift means engine behavior changed), and each row's
// median wall clock, and its median build time where the baseline has
// one, may exceed the baseline's by at most tol.
func guardScale(doc, base *scaleBaseline, tol float64) error {
	for _, b := range base.Rows {
		if !slices.ContainsFunc(doc.Rows, func(r scaleRow) bool { return r.Name == b.Name }) {
			return fmt.Errorf("baseline row %s missing from the new run", b.Name)
		}
	}
	for _, r := range doc.Rows {
		i := slices.IndexFunc(base.Rows, func(b scaleRow) bool { return b.Name == r.Name })
		if i < 0 {
			return fmt.Errorf("baseline lacks row %s", r.Name)
		}
		b := base.Rows[i]
		if r.Slots != b.Slots {
			return fmt.Errorf("%s: slot horizon %d differs from baseline %d — engine behavior changed",
				r.Name, r.Slots, b.Slots)
		}
		if lim := float64(b.MedianNS) * (1 + tol); float64(r.MedianNS) > lim {
			return fmt.Errorf("%s: median %.1fms regressed past baseline %.1fms +%.0f%%",
				r.Name, float64(r.MedianNS)/1e6, float64(b.MedianNS)/1e6, tol*100)
		}
		if lim := float64(b.BuildNS) * (1 + tol); b.BuildNS > 0 && float64(r.BuildNS) > lim {
			return fmt.Errorf("%s: build median %.1fms regressed past baseline %.1fms +%.0f%%",
				r.Name, float64(r.BuildNS)/1e6, float64(b.BuildNS)/1e6, tol*100)
		}
	}
	return nil
}

// scaleSmokeSlots are the slot horizons of the -scale-smoke floods,
// deterministic for the fixed graph, schedules and seed.
var scaleSmokeSlots = map[string]int64{"opt": 1496, "dbao": 1499}

// runScaleSmoke is the CI gate: a 10k-node random geometric graph, OPT
// and DBAO (whose carrier sense reads node positions), each of which must
// complete with its recorded slot horizon, bounded by the CI step's
// timeout. Exits through an error on any mismatch.
func runScaleSmoke() error {
	const nodes = 10000
	// Field side chosen to keep GreenOrbs-like density at 10k nodes.
	field := 130 * 5.8
	fmt.Printf("scale smoke: building rgg %d...\n", nodes)
	g, err := topology.RandomGeometric(nodes, field, field, topology.ForestRadio(), 0.10, 1)
	if err != nil {
		return err
	}
	scheds := schedule.AssignUniform(g.N(), 100, rngutil.New(1).SubName("schedule"))
	for _, protocol := range []string{"opt", "dbao"} {
		cfg, err := scaleConfig(g, scheds, protocol, 4)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", protocol, err)
		}
		if !res.Completed || res.TotalSlots != scaleSmokeSlots[protocol] {
			return fmt.Errorf("%s: completed %v after %d slots, want completion after %d",
				protocol, res.Completed, res.TotalSlots, scaleSmokeSlots[protocol])
		}
		fmt.Printf("scale smoke ok: %s, %d nodes, %d links, %d slots, %s\n",
			protocol, g.N(), g.NumLinks(), res.TotalSlots, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
