package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
)

// The traced run records spans from the benchmark's own code, around its
// calls into each layer, and never inside the program:
//
//	batch            runBatch: compile jobs, runner.Run, metrics.Combine
//	├─ job           one cell, from the protocol's Reset to the runner's
//	│  │             completion callback (the sim engine's span)
//	│  ├─ reset      flood: Protocol.Reset
//	│  └─ decide     flood: Intents, or PlanReceiver + SelectIntents
//	└─ combine       metrics.Combine
//
// A layer's self time is its span minus its children: engine self time is
// job − reset − decide, runner self time is batch − job − combine.

// spanClock accumulates one batch's child spans. The planner hooks may run
// on the engine's shard worker, so every field is atomic.
type spanClock struct {
	jobStart    atomic.Int64 // start of the running job, ns since the Unix epoch
	planStart   atomic.Int64 // first PlanReceiver call of the current slot, 0 when none
	job         atomic.Int64
	reset       atomic.Int64
	decide      atomic.Int64
	decideCalls atomic.Int64
}

// jobEnd closes the running job's span; the runner calls it as each job
// finishes.
func (c *spanClock) jobEnd() {
	c.job.Add(time.Now().UnixNano() - c.jobStart.Load())
}

// timedProtocol wraps a protocol to time its Reset and per-slot decisions.
type timedProtocol struct {
	sim.Protocol
	clk *spanClock
}

func (p *timedProtocol) Reset(w *sim.World) {
	t0 := time.Now()
	p.clk.jobStart.Store(t0.UnixNano())
	p.Protocol.Reset(w)
	p.clk.reset.Add(int64(time.Since(t0)))
}

func (p *timedProtocol) Intents(w *sim.World) []sim.Intent {
	t0 := time.Now()
	in := p.Protocol.Intents(w)
	p.clk.decide.Add(int64(time.Since(t0)))
	p.clk.decideCalls.Add(1)
	return in
}

// timedPlanner is timedProtocol for protocols that plan on the keyed-stream
// engine, so the engine still finds the planner interface.
type timedPlanner struct {
	timedProtocol
	sp sim.ShardPlanner
}

// PlanReceiver runs once per awake receiver per slot, too often to read the
// clock around every call. The slot's planning span instead runs from its
// first PlanReceiver call to the end of its SelectIntents call; on the
// single-lane engine nothing else runs in between.
func (p *timedPlanner) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	if p.clk.planStart.Load() == 0 {
		p.clk.planStart.CompareAndSwap(0, time.Now().UnixNano())
	}
	p.clk.decideCalls.Add(1)
	return p.sp.PlanReceiver(w, r, slot, buf)
}

func (p *timedPlanner) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	t0 := time.Now()
	start := p.clk.planStart.Swap(0)
	if start == 0 {
		start = t0.UnixNano()
	}
	p.sp.SelectIntents(w, plan, emit)
	p.clk.decide.Add(time.Now().UnixNano() - start)
	p.clk.decideCalls.Add(1)
}

// wrap decorates p so it reports into c.
func (c *spanClock) wrap(p sim.Protocol) sim.Protocol {
	tp := timedProtocol{Protocol: p, clk: c}
	if sp, ok := p.(sim.ShardPlanner); ok {
		return &timedPlanner{timedProtocol: tp, sp: sp}
	}
	return &tp
}

// batchSpans is one traced batch's span totals, in nanoseconds, plus the
// counts recorded at the same boundaries.
type batchSpans struct {
	Batch        int64 `json:"batch_ns"`
	Job          int64 `json:"job_ns"`
	Reset        int64 `json:"reset_ns"`
	Decide       int64 `json:"decide_ns"`
	Combine      int64 `json:"combine_ns"`
	DecideCalls  int64 `json:"decide_calls"`
	SlotsVisited int64 `json:"slots_visited"`
	SlotsTotal   int64 `json:"slots_total"`
	TxAttempts   int64 `json:"tx_attempts"`
	TxSuccess    int64 `json:"tx_success"`
}

// spans closes a traced batch: its child spans from the clock, the slots
// the engine visited from telemetry, and the simulated slots and
// transmissions from the results.
func (c *spanClock) spans(batch time.Duration, out *batchOutput, reg *telemetry.Registry) batchSpans {
	s := batchSpans{
		Batch:        int64(batch),
		Job:          c.job.Load(),
		Reset:        c.reset.Load(),
		Decide:       c.decide.Load(),
		Combine:      int64(out.combine),
		DecideCalls:  c.decideCalls.Load(),
		SlotsVisited: reg.Snapshot()["sim.slots.visited"],
	}
	for _, r := range out.results {
		s.SlotsTotal += r.TotalSlots
		s.TxAttempts += int64(r.Transmissions)
		s.TxSuccess += int64(r.Transmissions - r.Failures())
	}
	return s
}

// writeSpans saves the traced run's spans under .bench_build/spans/ in the
// working directory, for inspection after the run.
func writeSpans(workload string, seed uint64, spans []batchSpans) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return os.WriteFile(name, append(data, '\n'), 0o644)
}
