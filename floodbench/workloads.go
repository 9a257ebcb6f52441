package main

import (
	"context"
	"fmt"
	"time"

	"ldcflood/internal/flood"
	"ldcflood/internal/metrics"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/runner"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

// workload is one single-lane sweep: one protocol, one duty cycle, one engine
// discipline, run cell after cell on a single batch-runner worker. Like a
// cmd/sweep grid, every cell floods m packets over the same topology, and
// the cells differ in their wake-up schedules and run seed, which the
// benchmark seed draws. The topology is part of the workload's definition,
// not of its random input: topology shape dominates flooding cost, so a
// seed-drawn topology would make one seed's batch several times another's.
type workload struct {
	name     string
	protocol string
	nodes    int // GreenOrbs calibration scaled to this many nodes at constant density
	duty     float64
	m        int // packets flooded per cell
	cells    int // cells per batch
	workers  int // sim.Config.Workers: 0 = serial engine, 1 = keyed-stream engine
}

// topoSeed is the topology seed of every workload (cmd/sweep's default).
const topoSeed = 1

// workloads is the benchmark's fixed workload table; BENCHMARK.json gives
// the reason for each. Each stresses a different layer. Cells and packets
// are sized so one batch takes 80-200 ms on one core of a 2-vCPU Xeon
// host and its simulated work varies by a few percent from seed to seed.
var workloads = []workload{
	// Collision and overhearing resolution on the serial engine.
	{name: "dbao-2pct", protocol: "dbao", nodes: topology.GreenOrbsNodes, duty: 0.02, m: 64, cells: 6, workers: 0},
	// Tree-primary forwarding decisions on the serial engine.
	{name: "of-5pct", protocol: "of", nodes: topology.GreenOrbsNodes, duty: 0.05, m: 32, cells: 8, workers: 0},
	// Timer backoff: every flood runs for thousands of slots.
	{name: "dflood-5pct", protocol: "dflood", nodes: topology.GreenOrbsNodes, duty: 0.05, m: 8, cells: 3, workers: 0},
	// Large topology build and sharded planning on the keyed-stream engine.
	{name: "opt-10k", protocol: "opt", nodes: 10000, duty: 0.01, m: 8, cells: 2, workers: 1},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// cell is one cell's generated inputs.
type cell struct {
	scheds []*schedule.Schedule
	seed   uint64
}

// inputs are a workload's topology and cells, plus the time spent building
// the topology.
type inputs struct {
	graph    *topology.Graph
	cells    []cell
	topology time.Duration
}

// mix derives a cell's sub-seed from the benchmark seed (splitmix64 finalizer).
func mix(seed uint64, cell, role int) uint64 {
	z := seed ^ uint64(cell)*0x9e3779b97f4a7c15 ^ uint64(role)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// build is the benchmark's set-up: it generates the workload's topology and,
// from the benchmark seed, one schedule table and run seed per cell. The
// same seed always yields the same inputs.
func (w workload) build(seed uint64) (*inputs, error) {
	t0 := time.Now()
	g, err := topology.GenerateGreenOrbs(topology.ScaledGreenOrbsConfig(w.nodes), topoSeed)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	g.CSR()
	in := &inputs{graph: g, cells: make([]cell, w.cells), topology: time.Since(t0)}
	period := schedule.PeriodForDuty(w.duty)
	for i := range in.cells {
		in.cells[i] = cell{
			scheds: schedule.AssignUniform(g.N(), period, rngutil.New(mix(seed, i, 1)).SubName("schedule")),
			seed:   mix(seed, i, 2),
		}
	}
	return in, nil
}

// jobs compiles one batch: a fresh protocol instance per cell, as a sweep
// compiles its grid. The traced run passes a protocol decorator (its span
// recorder) and a telemetry registry; both are nil otherwise.
func (w workload) jobs(in *inputs, wrap func(sim.Protocol) sim.Protocol, reg *telemetry.Registry) ([]sim.Config, error) {
	jobs := make([]sim.Config, len(in.cells))
	for i, c := range in.cells {
		p, err := flood.New(w.protocol)
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			p = wrap(p)
		}
		jobs[i] = sim.Config{
			Graph:     in.graph,
			Schedules: c.scheds,
			Protocol:  p,
			M:         w.m,
			Coverage:  0.99,
			Seed:      c.seed,
			Workers:   w.workers,
			Telemetry: reg,
		}
	}
	return jobs, nil
}

// batchOutput is what one batch produced.
type batchOutput struct {
	results []*sim.Result
	agg     *metrics.Aggregate
	combine time.Duration // time spent in metrics.Combine
}

// runBatch executes one batch on a single batch-runner worker and
// aggregates it the way a sweep does. opts carries the traced run's hooks.
func runBatch(jobs []sim.Config, opts runner.Options) (*batchOutput, error) {
	opts.Workers = 1
	rs, _ := runner.Run(context.Background(), jobs, opts)
	results, err := rs.Sims()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	agg, err := metrics.Combine(results)
	if err != nil {
		return nil, err
	}
	return &batchOutput{results: results, agg: agg, combine: time.Since(t0)}, nil
}
