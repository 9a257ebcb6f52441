package sim

// Property tests driving the engine with randomized-but-valid protocols
// and asserting engine invariants hold for every behaviour a protocol can
// legally exhibit.

import (
	"testing"
	"testing/quick"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/topology"
)

// chaosProtocol emits a random valid subset of possible transmissions each
// slot, with random collision/overhearing modes fixed per run.
type chaosProtocol struct {
	rng       *rngutil.Stream
	density   float64
	collide   bool
	overhear  bool
	intentBuf []Intent
}

func (c *chaosProtocol) Name() string          { return "chaos" }
func (c *chaosProtocol) Reset(*World)          {}
func (c *chaosProtocol) CollisionsApply() bool { return c.collide }
func (c *chaosProtocol) Overhears() bool       { return c.overhear }
func (c *chaosProtocol) Intents(w *World) []Intent {
	c.intentBuf = c.intentBuf[:0]
	for _, r := range w.awakeList {
		for _, l := range w.Graph.Neighbors(r) {
			if !c.rng.Bool(c.density) {
				continue
			}
			if pkt := w.OldestNeeded(l.To, r); pkt >= 0 {
				c.intentBuf = append(c.intentBuf, Intent{From: l.To, To: r, Packet: pkt})
			}
		}
	}
	return c.intentBuf
}

func randomConnectedGraph(r *rngutil.Stream) *topology.Graph {
	n := 3 + r.Intn(20)
	g := topology.New(n)
	for v := 1; v < n; v++ {
		g.AddLink(v, r.Intn(v), 0.2+0.8*r.Float64())
	}
	extra := r.Intn(2 * n)
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasLink(u, v) {
			g.AddLink(u, v, 0.2+0.8*r.Float64())
		}
	}
	g.SortNeighbors()
	return g
}

// Property: for any random graph, schedule assignment and chaotic (but
// valid) protocol behaviour, the engine's books balance:
//   - Transmissions == successes + Failures() + redundant, where successes
//     equals the number of unicast (non-overheard, non-inject) deliveries;
//   - per-packet times are consistent (cover >= inject, first-hop <= cover);
//   - TxPerNode sums to Transmissions.
func TestQuickEngineAccounting(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.New(seed)
		g := randomConnectedGraph(r)
		n := g.N()
		period := 1 + r.Intn(8)
		m := 1 + r.Intn(4)
		proto := &chaosProtocol{
			rng:      r.SubName("chaos"),
			density:  0.1 + 0.8*r.Float64(),
			collide:  r.Bool(0.5),
			overhear: r.Bool(0.5),
		}
		res, err := Run(Config{
			Graph:     g,
			Schedules: schedule.AssignUniform(n, period, r.SubName("schedule")),
			Protocol:  proto,
			M:         m,
			Coverage:  1,
			Seed:      seed,
			MaxSlots:  20000,
			// Exercise the optional sync-error stream too.
			SyncErrorProb:    0.1 * r.Float64(),
			RecordReceptions: true,
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Deliveries via unicast: count distinct receptions minus overheard
		// minus injections (source receives by injection only).
		unicastDeliveries := 0
		for p := 0; p < m; p++ {
			for node := 0; node < n; node++ {
				if res.NodeRecvTime[p][node] >= 0 && node != 0 {
					unicastDeliveries++
				}
			}
		}
		unicastDeliveries -= res.Overheard
		if unicastDeliveries < 0 {
			return false
		}
		if res.Transmissions != unicastDeliveries+res.Failures() {
			t.Logf("seed %d: tx %d != deliveries %d + failures %d",
				seed, res.Transmissions, unicastDeliveries, res.Failures())
			return false
		}
		sum := 0
		for _, c := range res.TxPerNode {
			sum += c
		}
		if sum != res.Transmissions {
			return false
		}
		for p := 0; p < m; p++ {
			if res.CoverTime[p] >= 0 && res.CoverTime[p] < res.InjectTime[p] {
				return false
			}
			if res.FirstHopDelay[p] >= 0 && res.CoverTime[p] >= 0 &&
				res.FirstHopDelay[p] > res.CoverTime[p]-res.InjectTime[p] {
				return false
			}
			// Source always holds its own packets from injection.
			if res.NodeRecvTime[p][0] != res.InjectTime[p] && res.InjectTime[p] >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: possession is monotone and reception times are consistent with
// coverage counts.
func TestQuickReceptionConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.New(seed)
		g := randomConnectedGraph(r)
		proto := &chaosProtocol{
			rng:     r.SubName("chaos"),
			density: 0.5,
			collide: true,
		}
		m := 1 + r.Intn(3)
		res, err := Run(Config{
			Graph:            g,
			Schedules:        schedule.AssignUniform(g.N(), 4, r.SubName("schedule")),
			Protocol:         proto,
			M:                m,
			Coverage:         0.9,
			Seed:             seed,
			MaxSlots:         20000,
			RecordReceptions: true,
		})
		if err != nil {
			return false
		}
		for p := 0; p < m; p++ {
			if res.CoverTime[p] < 0 {
				continue
			}
			// At the cover time, at least CoverNodes nodes had received.
			got := 0
			for node := 0; node < g.N(); node++ {
				if rt := res.NodeRecvTime[p][node]; rt >= 0 && rt <= res.CoverTime[p] {
					got++
				}
			}
			if got < res.CoverNodes {
				t.Logf("seed %d packet %d: %d receptions by cover time, want >= %d",
					seed, p, got, res.CoverNodes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
