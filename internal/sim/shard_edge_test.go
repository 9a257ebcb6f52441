package sim

// Edge-case certification for the planner machinery: single-receiver
// slots and hyperperiods with empty awake buckets. Each case pins the full
// Result of the planner path against the RNG-free protocol's own plain
// Intents scan run through the engine's plain-protocol admission path.

import (
	"reflect"
	"testing"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/topology"
)

// greedyPlanner is a deterministic, RNG-free protocol implemented both as
// a plain Intents scan and as a ShardPlanner: each awake receiver is
// served by its lowest-id unassigned neighbor holding a packet it needs.
// The two implementations make identical decisions, so a run through the
// planner path and a run whose engine sees only the plain protocol (see
// plainOnly) must agree bit for bit wherever the engine's own draws are
// degenerate (PRR 1, no sync errors) — giving the sim package a
// planner-path oracle that does not depend on the flood protocols.
type greedyPlanner struct {
	assigned []bool
	emitted  []int32
	buf      []Intent
}

func (p *greedyPlanner) Name() string          { return "greedy-planner" }
func (p *greedyPlanner) CollisionsApply() bool { return true }
func (p *greedyPlanner) Overhears() bool       { return false }

func (p *greedyPlanner) Reset(w *World) {
	p.assigned = make([]bool, w.Graph.N())
}

func (p *greedyPlanner) Intents(w *World) []Intent {
	out := p.buf[:0]
	for _, r := range w.AwakeList() {
		for _, l := range w.Graph.Neighbors(r) {
			if p.assigned[l.To] {
				continue
			}
			if pkt := w.OldestNeeded(l.To, r); pkt >= 0 {
				p.assigned[l.To] = true
				out = append(out, Intent{From: l.To, To: r, Packet: pkt})
				break
			}
		}
	}
	p.buf = out
	for _, in := range out {
		p.assigned[in.From] = false
	}
	return out
}

func (p *greedyPlanner) PlanReceiver(w *World, r int, slot *rngutil.Stream, buf []Candidate) []Candidate {
	for _, l := range w.Graph.Neighbors(r) {
		if pkt := w.OldestNeeded(l.To, r); pkt >= 0 {
			buf = append(buf, Candidate{Node: int32(l.To), Packet: int32(pkt), PRR: l.PRR})
		}
	}
	return buf
}

func (p *greedyPlanner) SelectIntents(w *World, plan *SlotPlan, emit func(in Intent, prr float64)) {
	sel := p.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		for _, c := range plan.Candidates(i) {
			if p.assigned[c.Node] {
				continue
			}
			p.assigned[c.Node] = true
			sel = append(sel, c.Node)
			emit(Intent{From: int(c.Node), To: r, Packet: int(c.Packet)}, c.PRR)
			break
		}
	}
	for _, s := range sel {
		p.assigned[s] = false
	}
	p.emitted = sel
}

var _ ShardPlanner = (*greedyPlanner)(nil)

// plainOnly hides a protocol's planner methods from the engine, which then
// admits the protocol's own Intents.
type plainOnly struct{ Protocol }

// lineGraph builds an n-node path with uniform link quality.
func lineGraph(n int, prr float64) *topology.Graph {
	g := topology.New(n)
	for v := 1; v < n; v++ {
		g.AddLink(v-1, v, prr)
	}
	g.SortNeighbors()
	return g
}

// edgeRun executes the greedy planner protocol on the given schedules.
func edgeRun(t *testing.T, g *topology.Graph, scheds []*schedule.Schedule) *Result {
	t.Helper()
	return greedyRun(t, g, scheds, &greedyPlanner{})
}

// edgeRunPlain is edgeRun with the planner hidden: the engine runs the
// greedy protocol's plain Intents scan.
func edgeRunPlain(t *testing.T, g *topology.Graph, scheds []*schedule.Schedule) *Result {
	t.Helper()
	return greedyRun(t, g, scheds, plainOnly{&greedyPlanner{}})
}

func greedyRun(t *testing.T, g *topology.Graph, scheds []*schedule.Schedule, p Protocol) *Result {
	t.Helper()
	res, err := Run(Config{
		Graph:            g,
		Schedules:        scheds,
		Protocol:         p,
		M:                2,
		Coverage:         1,
		Seed:             7,
		MaxSlots:         50000,
		RecordReceptions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkEdgeCase pins the planner path against the plain Intents scan. The
// greedy planner is RNG-free and the config draw-free (PRR 1, no sync
// errors, no capture), so the two must agree bit for bit.
func checkEdgeCase(t *testing.T, g *topology.Graph, scheds []*schedule.Schedule) {
	t.Helper()
	base := edgeRun(t, g, scheds)
	if base.Transmissions == 0 {
		t.Fatal("degenerate case: nothing happened, edge path not exercised")
	}
	if plain := edgeRunPlain(t, g, scheds); !reflect.DeepEqual(plain, base) {
		t.Error("plain Intents scan diverged from the planner path on the deterministic subspace")
	}
}

// TestShardSingleAwakeNodeSlots gives every node its own exclusive slot
// (period n, one node per phase): every awake bucket has exactly one
// receiver, and the merge phase sees at most one success per slot.
func TestShardSingleAwakeNodeSlots(t *testing.T) {
	const n = 10
	g := lineGraph(n, 1)
	scheds := make([]*schedule.Schedule, n)
	for i := range scheds {
		scheds[i] = schedule.NewSingleSlot(n, i)
	}
	checkEdgeCase(t, g, scheds)
}

// TestShardZeroAwakeGaps aligns every node on phase 0 of a period-8
// schedule: seven of every eight slots have an empty awake bucket, so the
// loop steps over the gaps, visiting only the injection slots and phase 0.
func TestShardZeroAwakeGaps(t *testing.T) {
	const n = 12
	g := lineGraph(n, 1)
	scheds := make([]*schedule.Schedule, n)
	for i := range scheds {
		scheds[i] = schedule.NewSingleSlot(8, 0)
	}
	checkEdgeCase(t, g, scheds)
}

// preparingPlanner is greedyPlanner with an OnPlanSlot hook, registered
// at Reset, that records the slots it prepared; its Intents plans through
// PlanIntents, so hiding its planner methods behind plainOnly exercises
// the decorator path.
type preparingPlanner struct {
	greedyPlanner
	t        *testing.T
	prepared []int64
}

func (p *preparingPlanner) Reset(w *World) {
	p.greedyPlanner.Reset(w)
	w.OnPlanSlot(p.prepare)
}

func (p *preparingPlanner) Intents(w *World) []Intent { return PlanIntents(w, p) }

func (p *preparingPlanner) prepare(w *World) {
	if n := len(p.prepared); n > 0 && p.prepared[n-1] >= w.Now() {
		p.t.Errorf("slot %d prepared after slot %d", w.Now(), p.prepared[n-1])
	}
	p.prepared = append(p.prepared, w.Now())
}

func (p *preparingPlanner) PlanReceiver(w *World, r int, slot *rngutil.Stream, buf []Candidate) []Candidate {
	if n := len(p.prepared); n == 0 || p.prepared[n-1] != w.Now() {
		p.t.Errorf("slot %d planned receiver %d before its hook ran", w.Now(), r)
	}
	return p.greedyPlanner.PlanReceiver(w, r, slot, buf)
}

// plannerOnly has the shape of a timing decorator that exposes the
// planner: it embeds the Protocol and forwards PlanReceiver and
// SelectIntents, and nothing else the wrapped planner might implement.
type plannerOnly struct {
	Protocol
	sp ShardPlanner
}

func (p plannerOnly) PlanReceiver(w *World, r int, slot *rngutil.Stream, buf []Candidate) []Candidate {
	return p.sp.PlanReceiver(w, r, slot, buf)
}

func (p plannerOnly) SelectIntents(w *World, plan *SlotPlan, emit func(in Intent, prr float64)) {
	p.sp.SelectIntents(w, plan, emit)
}

// TestPlanSlotHookOncePerPlannedSlot checks that the OnPlanSlot hook runs
// once per planned slot, before the slot's first PlanReceiver call: on
// the engine's planning phase, through PlanIntents behind a
// planner-hiding decorator, and behind a decorator that forwards only the
// planner methods; all three prepare the same slots.
func TestPlanSlotHookOncePerPlannedSlot(t *testing.T) {
	g := lineGraph(9, 1)
	scheds := schedule.AssignUniform(g.N(), 5, rngutil.New(3).SubName("schedule"))
	var ref []int64
	for _, shape := range []string{"bare", "plain", "planner-only"} {
		p := &preparingPlanner{t: t}
		var proto Protocol = p
		switch shape {
		case "plain":
			proto = plainOnly{p}
		case "planner-only":
			proto = plannerOnly{Protocol: p, sp: p}
		}
		res := greedyRun(t, g, scheds, proto)
		if !res.Completed || len(p.prepared) == 0 {
			t.Fatalf("%s: completed %v after %d prepared slots", shape, res.Completed, len(p.prepared))
		}
		if ref == nil {
			ref = p.prepared
		} else if !reflect.DeepEqual(p.prepared, ref) {
			t.Errorf("%s: prepared %d slots, reference %d", shape, len(p.prepared), len(ref))
		}
	}
}
