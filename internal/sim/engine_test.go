package sim

import (
	"math"
	"testing"

	"ldcflood/internal/schedule"
	"ldcflood/internal/topology"
)

// chain is a stub protocol: every holder forwards to the next node on a
// line topology (node i -> i+1) whenever that node is awake.
type chain struct{}

func (chain) Name() string          { return "chain" }
func (chain) Reset(*World)          {}
func (chain) CollisionsApply() bool { return true }
func (chain) Overhears() bool       { return false }
func (chain) Intents(w *World) []Intent {
	var out []Intent
	for _, r := range w.awakeList {
		s := r - 1
		if s < 0 {
			continue
		}
		if pkt := w.OldestNeeded(s, r); pkt >= 0 {
			out = append(out, Intent{From: s, To: r, Packet: pkt})
		}
	}
	return out
}

// silent never transmits.
type silent struct{}

func (silent) Name() string            { return "silent" }
func (silent) Reset(*World)            {}
func (silent) CollisionsApply() bool   { return true }
func (silent) Overhears() bool         { return false }
func (silent) Intents(*World) []Intent { return nil }

func alwaysOn(n int) []*schedule.Schedule {
	out := make([]*schedule.Schedule, n)
	for i := range out {
		out[i] = schedule.AlwaysOn()
	}
	return out
}

func TestValidationErrors(t *testing.T) {
	g := topology.Line(3, 1)
	good := Config{Graph: g, Schedules: alwaysOn(3), Protocol: chain{}, M: 1}
	bad := []Config{
		{Schedules: alwaysOn(3), Protocol: chain{}, M: 1},
		{Graph: g, Schedules: alwaysOn(2), Protocol: chain{}, M: 1},
		{Graph: g, Schedules: alwaysOn(3), M: 1},
		{Graph: g, Schedules: alwaysOn(3), Protocol: chain{}, M: 0},
		{Graph: g, Schedules: alwaysOn(3), Protocol: chain{}, M: 1, InjectInterval: -1},
		{Graph: g, Schedules: alwaysOn(3), Protocol: chain{}, M: 1, Coverage: 1.5},
		{Graph: g, Schedules: []*schedule.Schedule{nil, nil, nil}, Protocol: chain{}, M: 1},
	}
	if _, err := Run(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestLinePerfectLinks(t *testing.T) {
	g := topology.Line(4, 1)
	res, err := Run(Config{Graph: g, Schedules: alwaysOn(4), Protocol: chain{}, M: 1, Coverage: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run incomplete")
	}
	// Hop per slot: node 3 receives at t=2 (inject at 0, 0->1 at t=0,
	// 1->2 at t=1, 2->3 at t=2).
	if res.Delay[0] != 2 {
		t.Fatalf("delay = %d, want 2", res.Delay[0])
	}
	if res.Transmissions != 3 {
		t.Fatalf("transmissions = %d, want 3", res.Transmissions)
	}
	if res.Failures() != 0 {
		t.Fatalf("failures = %d, want 0", res.Failures())
	}
	if res.Protocol != "chain" || res.M != 1 || res.CoverNodes != 4 {
		t.Fatalf("metadata wrong: %+v", res)
	}
}

func TestSleepLatency(t *testing.T) {
	// Node 1 wakes only at slot 7 of a 10-slot period: packet 0 must wait.
	g := topology.Line(2, 1)
	scheds := []*schedule.Schedule{
		schedule.AlwaysOn(),
		schedule.NewSingleSlot(10, 7),
	}
	res, err := Run(Config{Graph: g, Schedules: scheds, Protocol: chain{}, M: 1, Coverage: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay[0] != 7 {
		t.Fatalf("delay = %d, want sleep latency 7", res.Delay[0])
	}
}

func TestLinkLossRetransmission(t *testing.T) {
	// PRR 0.5 on a 2-node line with the receiver awake every slot: the
	// expected delay is ~1 extra slot per failure (geometric, mean 1).
	g := topology.Line(2, 0.5)
	var totalDelay, totalFail int
	runs := 200
	for seed := 0; seed < runs; seed++ {
		res, err := Run(Config{Graph: g, Schedules: alwaysOn(2), Protocol: chain{}, M: 1, Coverage: 1, Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		totalDelay += int(res.Delay[0])
		totalFail += res.LossFailures
	}
	meanDelay := float64(totalDelay) / float64(runs)
	meanFail := float64(totalFail) / float64(runs)
	if math.Abs(meanDelay-1) > 0.35 {
		t.Fatalf("mean delay %v, want ~1 (geometric failures)", meanDelay)
	}
	if math.Abs(meanFail-1) > 0.35 {
		t.Fatalf("mean failures %v, want ~1", meanFail)
	}
}

// colliders: nodes 0 and 1 both transmit packet 0 to node 2.
type colliders struct{ collide bool }

func (colliders) Name() string            { return "colliders" }
func (colliders) Reset(*World)            {}
func (c colliders) CollisionsApply() bool { return c.collide }
func (colliders) Overhears() bool         { return false }
func (colliders) Intents(w *World) []Intent {
	var out []Intent
	for _, s := range []int{0, 1} {
		if w.IsAwake(2) && w.OldestNeeded(s, 2) >= 0 {
			out = append(out, Intent{From: s, To: 2, Packet: 0})
		}
	}
	return out
}

func collisionTopology() *topology.Graph {
	// 0 and 1 both link to 2; 0-1 also linked so packet 0 can seed node 1.
	g := topology.New(3)
	g.AddLink(0, 2, 1)
	g.AddLink(1, 2, 1)
	g.AddLink(0, 1, 1)
	g.SortNeighbors()
	return g
}

type seedThenCollide struct{ colliders }

func (s seedThenCollide) Intents(w *World) []Intent {
	// First give node 1 the packet, then both 0 and 1 fire at node 2.
	if !w.Has(0, 1) {
		return []Intent{{From: 0, To: 1, Packet: 0}}
	}
	return s.colliders.Intents(w)
}

func TestCollisions(t *testing.T) {
	g := collisionTopology()
	res, err := Run(Config{
		Graph: g, Schedules: alwaysOn(3),
		Protocol: seedThenCollide{colliders{collide: true}},
		M:        1, Coverage: 1, Seed: 3, MaxSlots: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("persistent collisions should prevent completion")
	}
	if res.CollisionFailures == 0 {
		t.Fatal("no collision failures recorded")
	}
}

func TestNoCollisionModeDelivers(t *testing.T) {
	g := collisionTopology()
	res, err := Run(Config{
		Graph: g, Schedules: alwaysOn(3),
		Protocol: seedThenCollide{colliders{collide: false}},
		M:        1, Coverage: 1, Seed: 3, MaxSlots: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("oracle mode should deliver despite concurrent senders")
	}
	if res.CollisionFailures != 0 {
		t.Fatal("oracle mode recorded collisions")
	}
}

// busyMaker: node 1 transmits to node 2 while node 0 transmits to node 1.
type busyMaker struct{}

func (busyMaker) Name() string          { return "busy" }
func (busyMaker) Reset(*World)          {}
func (busyMaker) CollisionsApply() bool { return true }
func (busyMaker) Overhears() bool       { return false }
func (busyMaker) Intents(w *World) []Intent {
	var out []Intent
	if w.Has(0, 1) && w.IsAwake(2) && w.OldestNeeded(1, 2) >= 0 {
		out = append(out, Intent{From: 1, To: 2, Packet: 0})
	}
	if w.IsAwake(1) && w.OldestNeeded(0, 1) >= 0 {
		out = append(out, Intent{From: 0, To: 1, Packet: 0})
	}
	return out
}

func TestSemiDuplexBusyFailure(t *testing.T) {
	g := topology.Line(3, 1)
	res, err := Run(Config{Graph: g, Schedules: alwaysOn(3), Protocol: busyMaker{}, M: 1, Coverage: 1, Seed: 1, MaxSlots: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0: 0->1 succeeds. Slot 1: node 1 transmits to 2 — and node 0
	// has nothing new, so no busy conflict... actually node 1 already has
	// packet 0 so 0->1 stops. The packet should arrive.
	if !res.Completed {
		t.Fatal("run incomplete")
	}
	_ = res
}

// busyBoth: forces the conflict — 0->1 and 1->2 in the same slot after 1
// holds the packet (0 keeps retrying a packet 1 already has is dropped, so
// use M=2 to keep node 0 transmitting to node 1).
type busyBoth struct{}

func (busyBoth) Name() string          { return "busyBoth" }
func (busyBoth) Reset(*World)          {}
func (busyBoth) CollisionsApply() bool { return true }
func (busyBoth) Overhears() bool       { return false }
func (busyBoth) Intents(w *World) []Intent {
	var out []Intent
	if pkt := w.OldestNeeded(1, 2); pkt >= 0 && w.IsAwake(2) {
		out = append(out, Intent{From: 1, To: 2, Packet: pkt})
	}
	if pkt := w.OldestNeeded(0, 1); pkt >= 0 && w.IsAwake(1) {
		out = append(out, Intent{From: 0, To: 1, Packet: pkt})
	}
	return out
}

func TestBusyFailureCounted(t *testing.T) {
	g := topology.Line(3, 1)
	res, err := Run(Config{Graph: g, Schedules: alwaysOn(3), Protocol: busyBoth{}, M: 2, Coverage: 1, Seed: 1, MaxSlots: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.BusyFailures == 0 {
		t.Fatal("no busy failures despite transmit+receive conflict")
	}
	if !res.Completed {
		t.Fatal("run should still complete eventually")
	}
}

// hubcast: node 0 transmits packet 0 to node 1 only; used to observe
// overhearing at nodes 2..4 on a star.
type hubcast struct{ overhear bool }

func (hubcast) Name() string          { return "hubcast" }
func (hubcast) Reset(*World)          {}
func (hubcast) CollisionsApply() bool { return true }
func (h hubcast) Overhears() bool     { return h.overhear }
func (h hubcast) Intents(w *World) []Intent {
	if w.IsAwake(1) && w.OldestNeeded(0, 1) >= 0 {
		return []Intent{{From: 0, To: 1, Packet: 0}}
	}
	return nil
}

func TestOverhearing(t *testing.T) {
	g := topology.Star(5, 1)
	res, err := Run(Config{Graph: g, Schedules: alwaysOn(5), Protocol: hubcast{overhear: true}, M: 1, Coverage: 1, Seed: 1, MaxSlots: 10})
	if err != nil {
		t.Fatal(err)
	}
	// One targeted transmission; leaves 2,3,4 overhear it (PRR 1).
	if !res.Completed {
		t.Fatal("overhearing should complete the star in one slot")
	}
	if res.Overheard != 3 {
		t.Fatalf("Overheard = %d, want 3", res.Overheard)
	}
	if res.Transmissions != 1 {
		t.Fatalf("Transmissions = %d, want 1", res.Transmissions)
	}

	// Without overhearing the star cannot complete via this protocol.
	res2, err := Run(Config{Graph: g, Schedules: alwaysOn(5), Protocol: hubcast{overhear: false}, M: 1, Coverage: 1, Seed: 1, MaxSlots: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Completed {
		t.Fatal("no-overhearing run should not complete")
	}
	if res2.Overheard != 0 {
		t.Fatal("overhearing recorded while disabled")
	}
}

func TestDeterminism(t *testing.T) {
	g := topology.Line(5, 0.7)
	run := func(seed uint64) *Result {
		res, err := Run(Config{Graph: g, Schedules: alwaysOn(5), Protocol: chain{}, M: 3, Coverage: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if a.MeanDelay() != b.MeanDelay() || a.Failures() != b.Failures() || a.TotalSlots != b.TotalSlots {
		t.Fatal("same seed produced different results")
	}
	c := run(43)
	if a.TotalSlots == c.TotalSlots && a.LossFailures == c.LossFailures {
		t.Log("warning: different seeds produced identical coarse results (possible but unlikely)")
	}
}

func TestInjectInterval(t *testing.T) {
	g := topology.Line(2, 1)
	res, err := Run(Config{Graph: g, Schedules: alwaysOn(2), Protocol: chain{}, M: 3, InjectInterval: 5, Coverage: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if res.InjectTime[p] != int64(5*p) {
			t.Fatalf("inject time of %d = %d, want %d", p, res.InjectTime[p], 5*p)
		}
	}
}

func TestSilentProtocolTimesOut(t *testing.T) {
	g := topology.Line(2, 1)
	res, err := Run(Config{Graph: g, Schedules: alwaysOn(2), Protocol: silent{}, M: 1, Coverage: 1, MaxSlots: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("silent run reported complete")
	}
	if res.TotalSlots != 30 {
		t.Fatalf("TotalSlots = %d, want 30", res.TotalSlots)
	}
	if res.Delay[0] != -1 || res.CoverTime[0] != -1 {
		t.Fatal("uncovered packet should report -1 delay")
	}
	if !math.IsNaN(res.MeanDelay()) {
		t.Fatal("MeanDelay of uncovered run should be NaN")
	}
}

// invalidIntents exercises the engine's protocol-bug detection.
type invalidIntents struct{ mode int }

func (invalidIntents) Name() string          { return "invalid" }
func (invalidIntents) Reset(*World)          {}
func (invalidIntents) CollisionsApply() bool { return true }
func (invalidIntents) Overhears() bool       { return false }
func (p invalidIntents) Intents(w *World) []Intent {
	switch p.mode {
	case 0:
		return []Intent{{From: 0, To: 0, Packet: 0}} // self loop
	case 1:
		return []Intent{{From: 0, To: 9, Packet: 0}} // out of range
	case 2:
		return []Intent{{From: 1, To: 0, Packet: 0}} // sender lacks packet
	case 3:
		return []Intent{{From: 0, To: 2, Packet: 0}} // non-link (line)
	default:
		return []Intent{{From: 0, To: 1, Packet: 5}} // uninjected packet
	}
}

func TestEngineRejectsProtocolBugs(t *testing.T) {
	g := topology.Line(3, 1)
	for mode := 0; mode <= 4; mode++ {
		_, err := Run(Config{Graph: g, Schedules: alwaysOn(3), Protocol: invalidIntents{mode: mode}, M: 1, Coverage: 1, MaxSlots: 5})
		if err == nil {
			t.Fatalf("mode %d not rejected", mode)
		}
	}
}

func TestCoverageTargetBelowFull(t *testing.T) {
	// 10-node line, coverage 0.5: done once 5 nodes have the packet.
	g := topology.Line(10, 1)
	res, err := Run(Config{Graph: g, Schedules: alwaysOn(10), Protocol: chain{}, M: 1, Coverage: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoverNodes != 5 {
		t.Fatalf("CoverNodes = %d, want 5", res.CoverNodes)
	}
	if res.Delay[0] != 3 {
		t.Fatalf("delay = %d, want 3 (nodes 0-4 hold the packet at t=3)", res.Delay[0])
	}
}

func TestWorldAccessors(t *testing.T) {
	g := topology.Line(3, 1)
	checked := false
	p := &FuncProtocol{
		IntentsFunc: func(w *World) []Intent {
			if w.Now() == 1 && !checked {
				checked = true
				if w.Injected() != 2 {
					t.Errorf("Injected = %d, want 2", w.Injected())
				}
				if w.InjectSlot(1) != 1 {
					t.Errorf("InjectSlot(1) = %d", w.InjectSlot(1))
				}
				if w.RecvTime(0, 0) != 0 {
					t.Errorf("source RecvTime = %d", w.RecvTime(0, 0))
				}
				if w.RecvTime(0, 2) != -1 {
					t.Errorf("unreceived RecvTime = %d", w.RecvTime(0, 2))
				}
				if w.count[0] != 2 { // source + node 1 (delivered at t=0)
					t.Errorf("count[0] = %d", w.count[0])
				}
				if !w.NeedsAnything(2) || w.NeedsAnything(0) {
					t.Error("NeedsAnything wrong")
				}
			}
			// Chain forwarding.
			var out []Intent
			for _, r := range w.awakeList {
				if r > 0 {
					if pkt := w.OldestNeeded(r-1, r); pkt >= 0 {
						out = append(out, Intent{From: r - 1, To: r, Packet: pkt})
					}
				}
			}
			return out
		},
	}
	res, err := Run(Config{Graph: g, Schedules: alwaysOn(3), Protocol: p, M: 2, Coverage: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !checked || !res.Completed {
		t.Fatalf("accessor probe never ran or incomplete (checked=%v)", checked)
	}
	for _, o := range []TxOutcome{TxSuccess, TxSync} {
		if o.String() == "" {
			t.Fatal("empty outcome name")
		}
	}
}

func TestFuncProtocol(t *testing.T) {
	g := topology.Line(3, 1)
	resetCalled := false
	p := &FuncProtocol{
		ProtocolName: "hopper",
		ResetFunc:    func(w *World) { resetCalled = true },
		IntentsFunc: func(w *World) []Intent {
			var out []Intent
			for _, r := range w.awakeList {
				if r > 0 {
					if pkt := w.OldestNeeded(r-1, r); pkt >= 0 {
						out = append(out, Intent{From: r - 1, To: r, Packet: pkt})
					}
				}
			}
			return out
		},
		Collisions: true,
	}
	res, err := Run(Config{Graph: g, Schedules: alwaysOn(3), Protocol: p, M: 1, Coverage: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resetCalled {
		t.Fatal("ResetFunc not called")
	}
	if !res.Completed || res.Protocol != "hopper" {
		t.Fatalf("bad result: %+v", res)
	}
	// Nil hooks: a do-nothing protocol with a default name.
	empty := &FuncProtocol{}
	if empty.Name() != "func" || empty.Intents(nil) != nil {
		t.Fatal("nil hooks misbehave")
	}
	empty.Reset(nil) // must not panic
	if empty.CollisionsApply() || empty.Overhears() {
		t.Fatal("zero-value flags should be off")
	}
}

func TestRecordReceptions(t *testing.T) {
	g := topology.Line(4, 1)
	res, err := Run(Config{
		Graph: g, Schedules: alwaysOn(4), Protocol: chain{},
		M: 2, Coverage: 1, Seed: 1, RecordReceptions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeRecvTime == nil || len(res.NodeRecvTime) != 2 {
		t.Fatal("reception matrix missing")
	}
	// Packet 0 marches down the line: node i receives at slot i-1 (source
	// holds it from injection at slot 0).
	if res.NodeRecvTime[0][0] != 0 {
		t.Fatalf("source recv time %d", res.NodeRecvTime[0][0])
	}
	for i := 1; i < 4; i++ {
		if res.NodeRecvTime[0][i] != int64(i-1) {
			t.Fatalf("node %d received packet 0 at %d, want %d", i, res.NodeRecvTime[0][i], i-1)
		}
	}
	delays := res.NodeDelays(0)
	if len(delays) != 4 {
		t.Fatalf("delays = %v", delays)
	}
	// Without the flag, no matrix.
	res2, err := Run(Config{Graph: g, Schedules: alwaysOn(4), Protocol: chain{}, M: 1, Coverage: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.NodeRecvTime != nil || res2.NodeDelays(0) != nil {
		t.Fatal("reception matrix recorded without the flag")
	}
	if res.NodeDelays(5) != nil {
		t.Fatal("out-of-range packet should yield nil")
	}
}

func TestSyncErrorSlowsFlooding(t *testing.T) {
	g := topology.Line(6, 1)
	run := func(p float64) *Result {
		res, err := Run(Config{
			Graph: g, Schedules: alwaysOn(6), Protocol: chain{},
			M: 5, Coverage: 1, Seed: 2, SyncErrorProb: p, MaxSlots: 10000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("sync error %v prevented completion", p)
		}
		return res
	}
	clean := run(0)
	noisy := run(0.4)
	if clean.SyncFailures != 0 {
		t.Fatalf("clean run has %d sync failures", clean.SyncFailures)
	}
	if noisy.SyncFailures == 0 {
		t.Fatal("noisy run has no sync failures")
	}
	if noisy.MeanDelay() <= clean.MeanDelay() {
		t.Fatalf("sync error did not slow flooding: %.1f vs %.1f", noisy.MeanDelay(), clean.MeanDelay())
	}
	if noisy.Failures() <= clean.Failures() {
		t.Fatal("sync misses not counted as failures")
	}
}

func TestSyncErrorValidation(t *testing.T) {
	g := topology.Line(2, 1)
	for _, p := range []float64{-0.1, 1.0, 1.5} {
		_, err := Run(Config{Graph: g, Schedules: alwaysOn(2), Protocol: chain{}, M: 1, SyncErrorProb: p})
		if err == nil {
			t.Fatalf("sync error prob %v accepted", p)
		}
	}
}

func TestAwakeSlotAccounting(t *testing.T) {
	g := topology.Line(3, 1)
	scheds := []*schedule.Schedule{
		schedule.AlwaysOn(),
		schedule.NewSingleSlot(4, 1),
		schedule.NewSingleSlot(4, 3),
	}
	res, err := Run(Config{Graph: g, Schedules: scheds, Protocol: silent{}, M: 1, Coverage: 1, MaxSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.AwakeSlotsPerNode[0] != 8 {
		t.Fatalf("always-on node awake %d/8 slots", res.AwakeSlotsPerNode[0])
	}
	if res.AwakeSlotsPerNode[1] != 2 || res.AwakeSlotsPerNode[2] != 2 {
		t.Fatalf("duty-cycled nodes awake %d/%d, want 2 each",
			res.AwakeSlotsPerNode[1], res.AwakeSlotsPerNode[2])
	}
}

func TestFirstHopDelay(t *testing.T) {
	g := topology.Line(3, 1)
	res, err := Run(Config{Graph: g, Schedules: alwaysOn(3), Protocol: chain{}, M: 1, Coverage: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstHopDelay[0] != 0 {
		t.Fatalf("first hop delay = %d, want 0 (delivered in inject slot)", res.FirstHopDelay[0])
	}
}
