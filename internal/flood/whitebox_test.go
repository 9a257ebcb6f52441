package flood

// White-box tests of protocol internals that the behavioural tests reach
// only statistically.

import (
	"testing"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// worldFor builds a minimal running world so internals that need a
// *sim.World can be exercised: a paused simulation is emulated by invoking
// the protocol's Reset through a one-slot run.
func worldFor(t *testing.T, g *topology.Graph, p sim.Protocol) {
	t.Helper()
	scheds := make([]*schedule.Schedule, g.N())
	for i := range scheds {
		scheds[i] = schedule.AlwaysOn()
	}
	if _, err := sim.Run(sim.Config{
		Graph: g, Schedules: scheds, Protocol: p,
		M: 1, Coverage: 1, Seed: 1, MaxSlots: 200,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCarrierSenseBitsetPositionBased(t *testing.T) {
	// Three collinear nodes 30m apart with a max link of 30m: at factor
	// 1.0 the ends (60m apart) are hidden from each other, at 2.5 audible.
	g := topology.New(3)
	g.Pos = []topology.Point{{X: 0}, {X: 30}, {X: 60}}
	g.AddLink(0, 1, 0.9)
	g.AddLink(1, 2, 0.9)
	g.SortNeighbors()
	tight := newAudibility(g, 1.0)
	if tight.has(0, 2) || tight.has(2, 0) {
		t.Fatal("factor 1.0: ends should be hidden")
	}
	if !tight.has(0, 1) || !tight.has(1, 2) {
		t.Fatal("factor 1.0: adjacent nodes must be audible")
	}
	wide := newAudibility(g, 2.5)
	if !wide.has(0, 2) || !wide.has(2, 0) {
		t.Fatal("factor 2.5: ends should be audible")
	}
}

func TestCarrierSenseRangeMatchesLinkList(t *testing.T) {
	// The CSR-row maximum must equal the maximum over the sorted edge
	// list it replaced, bit for bit.
	for _, g := range []*topology.Graph{topology.GreenOrbs(1), topology.GreenOrbs(9), topology.Testbed(3)} {
		want := 0.0
		for _, e := range g.Links() {
			want = max(want, g.Pos[e.U].Dist(g.Pos[e.V]))
		}
		for _, f := range []float64{1, 1.5, 2.5} {
			if got := carrierSenseRange(g, f); got != f*want {
				t.Fatalf("%d nodes, factor %v: range %v, edge-list maximum gives %v", g.N(), f, got, f*want)
			}
		}
	}
}

func TestCarrierSenseBitsetFallsBackToAdjacency(t *testing.T) {
	g := topology.New(3)
	g.AddLink(0, 1, 0.9)
	g.AddLink(1, 2, 0.9)
	g.SortNeighbors()
	// No positions: audibility == adjacency.
	a := newAudibility(g, 1.0)
	if !a.has(0, 1) || !a.has(1, 0) || a.has(0, 2) || a.has(2, 0) {
		t.Fatal("fallback adjacency wrong")
	}
}

func TestOFForwardProbabilityShape(t *testing.T) {
	// Build an OF over a tiny world via a real run, then probe the
	// probability rule directly.
	g := topology.Line(4, 0.8)
	of := NewOF()
	worldFor(t, g, of)

	// Construct a fresh world by resetting on a new run-independent OF; we
	// only need expDelay populated, which Reset provides.
	// Probe: overdue packets double the probability; a serving parent
	// quarters it; density divides it.
	base := of.forwardProbability(probeWorld(t, g), 3, 0, 0.8, false, 1)
	dense := of.forwardProbability(probeWorld(t, g), 3, 0, 0.8, false, 4)
	if dense >= base {
		t.Fatalf("density did not dilute probability: %v vs %v", dense, base)
	}
	served := of.forwardProbability(probeWorld(t, g), 3, 0, 0.8, true, 1)
	if served >= base {
		t.Fatalf("serving parent did not suppress: %v vs %v", served, base)
	}
	if base > 1 || base <= 0 {
		t.Fatalf("probability out of range: %v", base)
	}
}

// probeWorld returns a live world whose Now() is 0 — obtained by observing
// Reset's world through a FuncProtocol shim.
func probeWorld(t *testing.T, g *topology.Graph) *sim.World {
	t.Helper()
	var captured *sim.World
	p := &sim.FuncProtocol{
		ResetFunc: func(w *sim.World) { captured = w },
	}
	scheds := make([]*schedule.Schedule, g.N())
	for i := range scheds {
		scheds[i] = schedule.AlwaysOn()
	}
	if _, err := sim.Run(sim.Config{
		Graph: g, Schedules: scheds, Protocol: p,
		M: 1, Coverage: 1, Seed: 1, MaxSlots: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("world not captured")
	}
	return captured
}

func TestDeferToReceptionRules(t *testing.T) {
	g := topology.Line(3, 1)
	var captured *sim.World
	p := &sim.FuncProtocol{
		ResetFunc: func(w *sim.World) { captured = w },
	}
	scheds := []*schedule.Schedule{
		schedule.AlwaysOn(),
		schedule.AlwaysOn(),
		schedule.NewSingleSlot(10, 9), // node 2 dormant at slot 0
	}
	if _, err := sim.Run(sim.Config{
		Graph: g, Schedules: scheds, Protocol: p,
		M: 1, Coverage: 1, Seed: 1, MaxSlots: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Each draw below uses a different slot stream, as successive slots do.
	slot := func(i int) *rngutil.Stream { return rngutil.New(uint64(i)) }
	// The source holds everything, so it never defers.
	for i := 0; i < 100; i++ {
		if deferKeyed(captured, 0, slot(i)) {
			t.Fatal("source deferred despite needing nothing")
		}
	}
	// A dormant node never defers (it cannot receive anyway)... node 2 is
	// dormant in the captured slot.
	for i := 0; i < 100; i++ {
		if deferKeyed(captured, 2, slot(i)) {
			t.Fatal("dormant node deferred")
		}
	}
	// An awake, needy node defers sometimes but not always, and a slot's
	// decision is the same however often it is asked.
	deferred, fired := 0, 0
	for i := 0; i < 400; i++ {
		d := deferKeyed(captured, 1, slot(i))
		if d != deferKeyed(captured, 1, slot(i)) {
			t.Fatal("defer decision changed within one slot")
		}
		if d {
			deferred++
		} else {
			fired++
		}
	}
	if deferred == 0 || fired == 0 {
		t.Fatalf("defer rule degenerate: %d/%d", deferred, fired)
	}
	if frac := float64(deferred) / 400; frac < 0.1 || frac > 0.45 {
		t.Fatalf("defer fraction %v far from 0.25", frac)
	}
}

func TestBenchParamSweepOFAggressiveness(t *testing.T) {
	// Parameter sanity rather than a benchmark: extreme aggressiveness
	// must not break completion.
	g := topology.GreenOrbs(8)
	for _, a := range []float64{0.05, 0.25, 0.9} {
		of := &OF{Aggressiveness: a}
		res, err := sim.Run(sim.Config{
			Graph:     g,
			Schedules: schedule.AssignUniform(g.N(), 10, rngutil.New(5).SubName("schedule")),
			Protocol:  of,
			M:         3,
			Coverage:  0.99,
			Seed:      5,
			MaxSlots:  2_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("aggressiveness %v: incomplete", a)
		}
	}
}
