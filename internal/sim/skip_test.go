package sim

// Tests for the slot loop's empty-offset skip: the awakePlan structure,
// its fallbacks, and property-based equivalence against the same loop
// visiting every slot. RunEverySlot (export_test.go) is the every-slot
// oracle: it builds no plan, so the loop scans the schedules on every
// slot. The full-protocol suite (every shipped protocol over real
// topologies, including trace-log byte identity) is the external test
// package in skip_equiv_test.go, because package flood imports sim.

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

// everySlot runs cfg through the every-slot oracle.
func everySlot(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := RunEverySlot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runCounted runs cfg with a fresh registry and returns the result and the
// visited/skipped slot counters.
func runCounted(t *testing.T, cfg Config) (res *Result, visited, skipped int64) {
	t.Helper()
	reg := telemetry.New()
	cfg.Telemetry = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	return res, snap["sim.slots.visited"], snap["sim.slots.skipped"]
}

// fcfsProtocol sends every awake receiver its neighbors' oldest needed
// packets, in receiver order.
func fcfsProtocol() *FuncProtocol {
	return &FuncProtocol{
		IntentsFunc: func(w *World) []Intent {
			var out []Intent
			for _, r := range w.awakeList {
				for _, l := range w.Graph.Neighbors(r) {
					if pkt := w.OldestNeeded(l.To, r); pkt >= 0 {
						out = append(out, Intent{From: l.To, To: r, Packet: pkt})
					}
				}
			}
			return out
		},
	}
}

// chaosSkipProtocol is a randomized protocol that consults its RNG only
// after finding a neighbor that holds a needed packet.
type chaosSkipProtocol struct {
	rng       *rngutil.Stream
	density   float64
	collide   bool
	overhear  bool
	intentBuf []Intent
}

func (c *chaosSkipProtocol) Name() string          { return "skip-chaos" }
func (c *chaosSkipProtocol) Reset(*World)          {}
func (c *chaosSkipProtocol) CollisionsApply() bool { return c.collide }
func (c *chaosSkipProtocol) Overhears() bool       { return c.overhear }
func (c *chaosSkipProtocol) Intents(w *World) []Intent {
	c.intentBuf = c.intentBuf[:0]
	for _, r := range w.awakeList {
		for _, l := range w.Graph.Neighbors(r) {
			if pkt := w.OldestNeeded(l.To, r); pkt >= 0 && c.rng.Bool(c.density) {
				c.intentBuf = append(c.intentBuf, Intent{From: l.To, To: r, Packet: pkt})
			}
		}
	}
	return c.intentBuf
}

// TestCompactPlanStructure checks the hyperperiod buckets and the
// next-non-empty distances on a handcrafted schedule table.
func TestCompactPlanStructure(t *testing.T) {
	scheds := []*schedule.Schedule{
		schedule.NewSingleSlot(2, 0), // node 0 awake at even slots
		schedule.NewSingleSlot(2, 0), // node 1 awake at even slots
		schedule.NewSingleSlot(3, 1), // node 2 awake at slots ≡ 1 (mod 3)
	}
	plan := newAwakePlan(scheds)
	if plan == nil {
		t.Fatal("newAwakePlan returned nil for a regular table")
	}
	if plan.L != 6 {
		t.Fatalf("hyperperiod = %d, want 6", plan.L)
	}
	wantBuckets := [][]int32{{0, 1}, {2}, {0, 1}, nil, {0, 1, 2}, nil}
	if !reflect.DeepEqual(plan.buckets, wantBuckets) {
		t.Errorf("buckets = %v, want %v", plan.buckets, wantBuckets)
	}
	// Offset 3 is one slot from 4; offset 5 wraps to 0.
	if want := []int32{0, 0, 0, 1, 0, 1}; !reflect.DeepEqual(plan.gap, want) {
		t.Errorf("gap = %v, want %v", plan.gap, want)
	}

	// A wrap-around run of empty offsets: only offset 2 of 5 is awake.
	plan = newAwakePlan([]*schedule.Schedule{schedule.NewSingleSlot(5, 2)})
	if want := []int32{2, 1, 0, 4, 3}; !reflect.DeepEqual(plan.gap, want) {
		t.Errorf("single-slot gap = %v, want %v", plan.gap, want)
	}
}

// TestCompactPlanIrregularFallback: coprime large periods make the
// hyperperiod exceed the internal bound, so no plan is built and the loop
// visits every slot — with the same result as the every-slot oracle.
func TestCompactPlanIrregularFallback(t *testing.T) {
	scheds := []*schedule.Schedule{
		schedule.NewSingleSlot(97, 0),
		schedule.NewSingleSlot(89, 3), // lcm(97, 89) = 8633 > 8192
	}
	if plan := newAwakePlan(scheds); plan != nil {
		t.Fatalf("newAwakePlan = %+v, want nil for hyperperiod 8633", plan)
	}
	cfg := Config{
		Graph:     topology.Line(2, 1),
		Schedules: scheds,
		Protocol:  fcfsProtocol(),
		M:         2,
		Coverage:  1,
		Seed:      7,
	}
	res, visited, skipped := runCounted(t, cfg)
	if skipped != 0 || visited != res.TotalSlots {
		t.Errorf("visited %d, skipped %d of %d slots; want every slot visited", visited, skipped, res.TotalSlots)
	}
	oracle := everySlot(t, cfg)
	if !reflect.DeepEqual(res, oracle) {
		t.Errorf("fallback result diverged:\ngot    %+v\noracle %+v", res, oracle)
	}
}

// TestCompactFaultGate: the skip applies under every fault family — a
// skipped slot has nobody awake, and the churn timeline and link chains
// catch up at the next visited slot — and reproduces the every-slot
// oracle exactly.
func TestCompactFaultGate(t *testing.T) {
	g := topology.Grid(4, 4, 0.8)
	for name, fs := range map[string]*fault.Schedule{
		"none":   nil,
		"static": {Links: []fault.LinkRule{{BadScale: 0.5, StartBad: 1}}},
		"crash":  {Crashes: []fault.Crash{{Node: 5, At: 33, RebootAt: 171}, {Node: 9, At: 57, RebootAt: -1}}},
		"jam":    {Jams: []fault.Jam{{From: 10, Until: 90, Nodes: []int{1, 2, 6}}}},
		"chain":  {Links: []fault.LinkRule{{PGB: 0.1, PBG: 0.1, BadScale: 0.3}}},
	} {
		cfg := Config{
			Graph:         g,
			Schedules:     schedule.AssignUniform(g.N(), 24, rngutil.New(5).SubName("schedule")),
			Protocol:      fcfsProtocol(),
			M:             3,
			Coverage:      0.9,
			Seed:          5,
			Faults:        fs,
			SyncErrorProb: 0.05,
		}
		res, visited, skipped := runCounted(t, cfg)
		if skipped == 0 || visited+skipped != res.TotalSlots {
			t.Errorf("%s: visited %d, skipped %d of %d slots; want the skip to fire", name, visited, skipped, res.TotalSlots)
		}
		oracle := everySlot(t, cfg)
		if !reflect.DeepEqual(res, oracle) {
			t.Errorf("%s: skipping diverged from the every-slot loop:\ngot    %+v\noracle %+v", name, res, oracle)
		}
	}
}

// TestQuickCompactEquivalence is the core equivalence property: for random
// connected graphs, random uniform schedule assignments and a randomized
// protocol, the skipping loop and the every-slot loop produce bit-identical
// Results — every metric, timestamp and per-node counter.
func TestQuickCompactEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.New(seed)
		g := randomConnectedGraph(r)
		n := g.N()
		period := 1 + r.Intn(12)
		m := 1 + r.Intn(4)
		scheds := schedule.AssignUniform(n, period, r.SubName("schedule"))
		density, collide, overhear := 0.1+0.8*r.Float64(), r.Bool(0.5), r.Bool(0.5)
		mkProto := func() *chaosSkipProtocol {
			return &chaosSkipProtocol{
				rng:      rngutil.New(seed).SubName("chaos"),
				density:  density,
				collide:  collide,
				overhear: overhear,
			}
		}
		cfg := Config{
			Graph:            g,
			Schedules:        scheds,
			Protocol:         mkProto(),
			M:                m,
			Coverage:         1,
			Seed:             seed,
			MaxSlots:         20000,
			SyncErrorProb:    0.1 * r.Float64(),
			RecordReceptions: true,
			InjectInterval:   1 + r.Intn(3),
		}
		got, err := Run(cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		cfg.Protocol = mkProto()
		oracle, err := RunEverySlot(cfg)
		if err != nil {
			t.Logf("seed %d every-slot: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(got, oracle) {
			t.Logf("seed %d: results diverge\ngot    %+v\noracle %+v", seed, got, oracle)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactIncompleteRunAccounting: when coverage is unreachable the
// loop's final jump lands on the horizon: TotalSlots is the full horizon,
// the awake-slot totals are the schedules' own, and churn events in the
// skipped tail are still applied.
func TestCompactIncompleteRunAccounting(t *testing.T) {
	// Two disconnected pairs: packets injected at node 0 can never reach
	// nodes 2-3, so full coverage is impossible. Offsets 4-7 of the
	// period-8 table are empty, so every period ends in a skipped stretch;
	// the horizon 5000 is a multiple of 8, so the last stretch (4996-4999)
	// runs into it and holds the node-3 crash at 4998.
	g := topology.New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(2, 3, 1)
	g.SortNeighbors()
	cfg := Config{
		Graph: g,
		Schedules: []*schedule.Schedule{
			schedule.NewSingleSlot(8, 0),
			schedule.NewSingleSlot(8, 2),
			schedule.NewSingleSlot(8, 1),
			schedule.NewSingleSlot(8, 3),
		},
		Protocol: fcfsProtocol(),
		M:        2,
		Coverage: 1,
		Seed:     3,
		MaxSlots: 5000,
		Faults:   &fault.Schedule{Crashes: []fault.Crash{{Node: 3, At: 4998, RebootAt: -1}}},
	}
	res, visited, skipped := runCounted(t, cfg)
	if res.Completed {
		t.Fatal("test premise broken: run completed on a disconnected graph")
	}
	if res.TotalSlots != 5000 {
		t.Errorf("TotalSlots = %d, want the full 5000-slot horizon", res.TotalSlots)
	}
	// Four awake offsets per period of 8 over 625 periods.
	if visited != 2500 || skipped != 2500 {
		t.Errorf("visited %d, skipped %d; want 2500 each", visited, skipped)
	}
	if want := []int64{625, 625, 625, 625}; !reflect.DeepEqual(res.AwakeSlotsPerNode, want) {
		t.Errorf("AwakeSlotsPerNode = %v, want %v", res.AwakeSlotsPerNode, want)
	}
	if res.Crashes != 1 {
		t.Errorf("Crashes = %d, want the tail crash applied", res.Crashes)
	}
	oracle := everySlot(t, cfg)
	if !reflect.DeepEqual(res, oracle) {
		t.Errorf("incomplete-run results diverge:\ngot    %+v\noracle %+v", res, oracle)
	}
}

// TestInterruptPolledOnVisitedSlots pins the Interrupt contract: the hook
// is polled only on visited slots, so an interrupt raised during a skipped
// stretch is delivered at the next visited slot.
func TestInterruptPolledOnVisitedSlots(t *testing.T) {
	var polled []int64
	_, err := Run(Config{
		Graph: topology.Line(2, 1),
		Schedules: []*schedule.Schedule{
			schedule.NewSingleSlot(10, 0),
			schedule.NewSingleSlot(10, 6),
		},
		Protocol: &FuncProtocol{}, // never sends: the run would time out
		M:        1,
		Coverage: 1,
		Seed:     1,
		Interrupt: func(slot int64) bool {
			polled = append(polled, slot)
			return slot >= 13 // raised in the skipped stretch 11-15
		},
	})
	if !errors.Is(err, ErrInterrupted) || !strings.Contains(err.Error(), "at slot 16") {
		t.Fatalf("err = %v, want an interrupt delivered at slot 16", err)
	}
	for _, s := range polled {
		if s%10 != 0 && s%10 != 6 {
			t.Fatalf("Interrupt polled at skipped slot %d (polled %v)", s, polled)
		}
	}
}
