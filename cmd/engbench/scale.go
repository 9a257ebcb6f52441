package main

// The -scale mode: large-topology wall-clock baseline BENCH_scale.json.
//
// Where BENCH_engine.json times the paper-scale 298-node grid, the scale
// grid times the engine on 10k- and 100k-node ScaledGreenOrbs instances at
// 1% duty, in two configurations per cell:
//
//   - keyed1: the engine inline (Workers: 1).
//   - keyed-nproc: the engine on its worker pool, Workers =
//     runtime.NumCPU() (recorded in the row).
//
// Every number is measured wall clock. Each node count's topology is
// built -scale-reps times first, and every row of that size records the
// builds' median and quartiles (build_ns, build_q1_ns, build_q3_ns): for a
// 100k-node flood the build is a cost the user waits for too. Each row
// then runs -scale-reps times;
// the configurations of a cell alternate run by run (in reverse order on
// odd reps), so a slow period on a shared host lands on all of them
// rather than on one, and a row records the median and quartiles of its
// runs. The document records the host (CPU model, nproc, GOMAXPROCS),
// without which a worker-count comparison means nothing.
//
// The two rows of a cell must produce identical Results; the command
// fails otherwise.

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"time"

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
	// BuildNS, BuildQ1NS and BuildQ3NS summarize the wall clock of
	// building the row's topology (GenerateGreenOrbs), shared by every
	// row of the same node count.
	BuildNS   int64 `json:"build_ns,omitempty"`
	BuildQ1NS int64 `json:"build_q1_ns,omitempty"`
	BuildQ3NS int64 `json:"build_q3_ns,omitempty"`
	// Engine is keyed1 or keyed-nproc; Workers is the sim.Config.Workers
	// value it ran with.
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
	Reps    int    `json:"reps"`
	// MedianNS, Q1NS and Q3NS summarize the row's per-run wall clock.
	MedianNS int64 `json:"median_ns"`
	Q1NS     int64 `json:"q1_ns"`
	Q3NS     int64 `json:"q3_ns"`
	// Slots is the run's simulated-slot horizon, deterministic per row.
	Slots int64 `json:"slots"`
	// BytesPerNode is the heap one keyed1 run allocates divided by the
	// node count — the O(n+m)-memory evidence. Keyed1 rows only.
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`
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
	M         int        `json:"m"`
	Coverage  float64    `json:"coverage"`
	Seed      int64      `json:"seed"`
	Period    int        `json:"period"`
	Rows      []scaleRow `json:"rows"`
}

// scaleGrid defines the measured cells. Period 100 ≈ 1% duty, the paper's
// hardest regime and the one where the awake-set bucketing matters most.
var scaleGrid = []struct {
	nodes    int
	protocol string
}{
	{10000, "opt"},
	{10000, "dbao"},
	{100000, "opt"},
	{100000, "dbao"},
}

const scalePeriod = 100

func runScale(out, against string, tol float64, reps int) error {
	doc := &scaleBaseline{
		Generator: "cmd/engbench -scale",
		Host:      hostInfo(),
		M:         4,
		Coverage:  0.99,
		Seed:      1,
		Period:    scalePeriod,
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
		rows, err := measureScaleCell(b, cell.protocol, reps)
		if err != nil {
			return fmt.Errorf("%s/%d: %w", cell.protocol, cell.nodes, err)
		}
		doc.Rows = append(doc.Rows, rows...)
	}
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
func scaleConfig(g *topology.Graph, scheds []*schedule.Schedule, protocol string, workers int) (sim.Config, error) {
	p, err := flood.New(protocol)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Graph:     g,
		Schedules: scheds,
		Protocol:  p,
		M:         4,
		Coverage:  0.99,
		Seed:      1,
		MaxSlots:  2000000,
		Workers:   workers,
	}, nil
}

// scaleBuild is one node count's topology and the wall clock of building
// it: median and quartiles over the builds.
type scaleBuild struct {
	g              *topology.Graph
	median, q1, q3 int64
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
	fmt.Printf("scaled-greenorbs %d: %d links, build median=%.1fms IQR=%.1fms\n",
		nodes, b.g.NumLinks(), float64(b.median)/1e6, float64(b.q3-b.q1)/1e6)
	return b, nil
}

// measureScaleCell times the cell's engine configurations on the built
// topology, alternating between them run by run.
func measureScaleCell(b *scaleBuild, protocol string, reps int) ([]scaleRow, error) {
	g := b.g
	var err error
	scheds := schedule.AssignUniform(g.N(), scalePeriod, rngutil.New(1).SubName("schedule"))
	type engine struct {
		name    string
		workers int
	}
	engines := []engine{{"keyed1", 1}, {"keyed-nproc", runtime.NumCPU()}}
	rows := make([]scaleRow, len(engines))
	cfgs := make([]sim.Config, len(engines))
	results := make([]*sim.Result, len(engines))
	times := make([][]float64, len(engines))
	for i, en := range engines {
		if cfgs[i], err = scaleConfig(g, scheds, protocol, en.workers); err != nil {
			return nil, err
		}
		rows[i] = scaleRow{
			Name:      fmt.Sprintf("%s/%d/%s", protocol, g.N(), en.name),
			Protocol:  protocol,
			Nodes:     g.N(),
			Links:     g.NumLinks(),
			BuildNS:   b.median,
			BuildQ1NS: b.q1,
			BuildQ3NS: b.q3,
			Engine:    en.name,
			Workers:   en.workers,
			Reps:      reps,
		}
	}

	// Heap cost of one inline run, measured before any timing so the
	// allocation profile is cold-start-representative.
	const keyed1 = 0
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sim.Run(cfgs[keyed1]); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	rows[keyed1].BytesPerNode = float64(after.TotalAlloc-before.TotalAlloc) / float64(g.N())

	for r := 0; r < reps; r++ {
		for k := range cfgs {
			i := k
			if r%2 == 1 {
				i = len(cfgs) - 1 - k
			}
			// A fresh protocol per run keeps memoized state from crossing runs.
			p, err := flood.New(protocol)
			if err != nil {
				return nil, err
			}
			cfgs[i].Protocol = p
			runtime.GC()
			start := time.Now()
			res, err := sim.Run(cfgs[i])
			d := time.Since(start)
			if err != nil {
				return nil, err
			}
			if !res.Completed {
				return nil, fmt.Errorf("%s did not complete within %d slots", rows[i].Name, cfgs[i].MaxSlots)
			}
			times[i] = append(times[i], float64(d.Nanoseconds()))
			results[i] = res
		}
	}
	for i := range rows {
		rows[i].MedianNS = int64(stats.Percentile(times[i], 50))
		rows[i].Q1NS = int64(stats.Percentile(times[i], 25))
		rows[i].Q3NS = int64(stats.Percentile(times[i], 75))
		rows[i].Slots = results[i].TotalSlots
		if !reflect.DeepEqual(results[i], results[keyed1]) {
			return nil, fmt.Errorf("%s and %s results diverge", rows[i].Name, rows[keyed1].Name)
		}
		fmt.Printf("%-24s workers=%-2d median=%9.1fms  IQR=%7.1fms  slots=%d\n",
			rows[i].Name, rows[i].Workers, float64(rows[i].MedianNS)/1e6,
			float64(rows[i].Q3NS-rows[i].Q1NS)/1e6, rows[i].Slots)
	}
	return rows, nil
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

// runScaleSmoke is the CI gate: a 10k-node random geometric graph, OPT
// and DBAO (whose carrier sense reads node positions), each at workers 1,
// 4 and extraWorkers with byte-equal Results, bounded by the CI step's
// timeout. Exits through an error on any divergence.
func runScaleSmoke(extraWorkers int) error {
	const nodes = 10000
	// Field side chosen to keep GreenOrbs-like density at 10k nodes.
	field := 130 * 5.8
	fmt.Printf("scale smoke: building rgg %d...\n", nodes)
	g, err := topology.RandomGeometric(nodes, field, field, topology.ForestRadio(), 0.10, 1)
	if err != nil {
		return err
	}
	scheds := schedule.AssignUniform(g.N(), 100, rngutil.New(1).SubName("schedule"))
	workers := []int{1, 4}
	if extraWorkers > 1 && extraWorkers != 4 {
		workers = append(workers, extraWorkers)
	}
	for _, protocol := range []string{"opt", "dbao"} {
		var ref *sim.Result
		var times []string
		for _, w := range workers {
			cfg, err := scaleConfig(g, scheds, protocol, w)
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := sim.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s workers %d: %w", protocol, w, err)
			}
			times = append(times, fmt.Sprintf("workers%d=%s", w, time.Since(start).Round(time.Millisecond)))
			if ref == nil {
				if !res.Completed {
					return fmt.Errorf("%s smoke run did not complete", protocol)
				}
				ref = res
			} else if !reflect.DeepEqual(ref, res) {
				return fmt.Errorf("%s: workers 1 and workers %d results diverge", protocol, w)
			}
		}
		fmt.Printf("scale smoke ok: %s, %d nodes, %d links, %d slots, %s, identical\n",
			protocol, g.N(), g.NumLinks(), ref.TotalSlots, strings.Join(times, " "))
	}
	return nil
}
