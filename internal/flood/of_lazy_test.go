package flood

// OF resolves an opportunistic candidate's packet only when the
// candidate's keyed uniform falls below maxForwardProbability. These tests
// certify the two halves of that claim: the bound holds exactly in
// floating point for every input, so the gate can never hide a firing
// candidate, and a run with the lazy decision is byte-identical to one
// with an eager reference that resolves every candidate's packet up
// front.

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// TestOFForwardProbabilityBound checks forwardProbability <=
// maxForwardProbability over ages on both sides of the expected tree
// delay, both parent states, PRRs across (0, 1] including subnormals,
// 1–1000 opportunistic candidates and Aggressiveness from 0.25 to +Inf.
// With a NaN Aggressiveness both are NaN; there it checks the fire
// outcome instead: neither the eager rule nor the lazy gate fires.
func TestOFForwardProbabilityBound(t *testing.T) {
	w := probeWorld(t, topology.Line(2, 1))
	age := float64(w.Now() - w.InjectSlot(0))
	r := rngutil.New(7)

	prrs := []float64{
		1, 0.5, math.Nextafter(1, 0), 1e-300,
		0x1p-1022,                       // smallest normal
		math.Nextafter(0x1p-1022, 0),    // largest subnormal
		math.SmallestNonzeroFloat64,     // smallest subnormal
		3 * math.SmallestNonzeroFloat64, // rounds under the density divisor
	}
	for i := 0; i < 64; i++ {
		prrs = append(prrs, 1-r.Float64())
	}
	opps := []int{1, 2, 3, 7, 999, 1000}
	for i := 0; i < 16; i++ {
		opps = append(opps, 1+r.Intn(1000))
	}
	expected := []float64{age - 1, age, age + 1, age - 0.5, age + 0.5}
	for i := 0; i < 8; i++ {
		expected = append(expected, age+200*(r.Float64()-0.5))
	}
	us := []float64{0, 0.5, math.Nextafter(1, 0)}
	for i := 0; i < 8; i++ {
		us = append(us, r.Float64())
	}

	checked, overdue := 0, 0
	for _, a := range []float64{0.25, 1e12, math.Inf(1), math.NaN()} {
		o := &OF{Aggressiveness: a, expDelay: []float64{0}}
		for _, prr := range prrs {
			for _, opp := range opps {
				qmax := o.maxForwardProbability(prr, opp)
				for _, e := range expected {
					o.expDelay[0] = e
					if age > e {
						overdue++
					}
					for _, parentServes := range []bool{false, true} {
						q := o.forwardProbability(w, 0, 0, prr, parentServes, opp)
						ctx := fmt.Sprintf("a=%v prr=%v opp=%d age=%v expDelay=%v parent=%v", a, prr, opp, age, e, parentServes)
						checked++
						if math.IsNaN(a) {
							for _, u := range us {
								if q > 0 && u < q {
									t.Fatalf("%s u=%v: eager rule fires on q=%v", ctx, u, q)
								}
								if u < qmax {
									t.Fatalf("%s u=%v: lazy gate passes on qmax=%v", ctx, u, qmax)
								}
							}
							continue
						}
						if !(q <= qmax) || q < 0 || qmax > 1 {
							t.Fatalf("%s: q=%v qmax=%v", ctx, q, qmax)
						}
						// The gate never skips a candidate the rule fires.
						for _, u := range append(us, q, qmax, math.Nextafter(q, 0)) {
							if q > 0 && u < q && u >= qmax {
								t.Fatalf("%s u=%v: fires at q=%v but gated at qmax=%v", ctx, u, q, qmax)
							}
						}
					}
				}
			}
		}
	}
	if overdue == 0 || overdue == checked/2 {
		t.Fatalf("grid covered only one side of the expected delay (%d of %d overdue)", overdue, checked/2)
	}
}

// eagerOF is the reference OF decider: it resolves every candidate's
// FCFS packet up front, admits candidates on that scan and looks up the
// parent link's PRR per receiver, then compares every unassigned,
// undeferred opportunistic candidate against forwardProbability. It
// shares Reset, the tree and forwardProbability with OF, so it differs
// from OF only in where packets are resolved.
type eagerOF struct{ *OF }

func (e eagerOF) Intents(w *sim.World) []sim.Intent {
	type cand struct {
		node, pkt int
		prr, u    float64
		deferred  bool
	}
	o := e.OF
	slot := w.ProtoStream()
	var out []sim.Intent
	for r := range w.Graph.N() {
		if !w.IsAwake(r) {
			continue
		}
		parent := o.tr.Parent[r]
		parentServes := false
		if parent >= 0 {
			if pkt := w.OldestNeeded(parent, r); pkt >= 0 && !o.assigned[parent] && !deferKeyed(w, parent, &slot) {
				o.assigned[parent] = true
				out = append(out, sim.Intent{From: parent, To: r, Packet: pkt, PRR: o.csr.PRROf(r, parent)})
				parentServes = true
			}
		}
		if o.DisableOpportunistic {
			continue
		}
		var cands []cand
		row, prrs := o.csr.Row(r)
		for i, s32 := range row {
			s := int(s32)
			if s == parent {
				continue
			}
			if pkt := w.OldestNeeded(s, r); pkt >= 0 {
				cands = append(cands, cand{node: s, pkt: pkt, prr: prrs[i], u: pairU(&slot, r, s), deferred: deferKeyed(w, s, &slot)})
			}
		}
		oppCands := 0
		for _, c := range cands {
			if !o.assigned[c.node] {
				oppCands++
			}
		}
		for _, c := range cands {
			if o.assigned[c.node] {
				continue
			}
			q := o.forwardProbability(w, r, c.pkt, c.prr, parentServes, oppCands)
			if q > 0 && c.u < q && !c.deferred {
				o.assigned[c.node] = true
				out = append(out, sim.Intent{From: c.node, To: r, Packet: c.pkt, PRR: c.prr})
			}
		}
	}
	release(o.assigned, out)
	return out
}

// randomOFGraph is a connected random graph: a random spanning tree plus
// up to 2n extra links, PRRs in [0.2, 1).
func randomOFGraph(r *rngutil.Stream) *topology.Graph {
	n := 4 + r.Intn(30)
	g := topology.New(n)
	for v := 1; v < n; v++ {
		g.AddLink(v, r.Intn(v), 0.2+0.8*r.Float64())
	}
	for i := r.Intn(2 * n); i > 0; i-- {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasLink(u, v) {
			g.AddLink(u, v, 0.2+0.8*r.Float64())
		}
	}
	g.SortNeighbors()
	return g
}

// TestOFLazyMatchesEager runs OF and the eager reference on random graphs
// and schedules, M ∈ {3, 64, 65, 130} (one to three packet words), with
// and without a crash/reboot schedule, and requires identical results
// and byte-identical traces. A NaN Aggressiveness must silence the
// opportunistic path on both: the run equals the tree-only ablation.
func TestOFLazyMatchesEager(t *testing.T) {
	aggr := []float64{0.25, 1, 4, 1e12}
	for _, m := range []int{3, 64, 65, 130} {
		for seed := uint64(1); seed <= 6; seed++ {
			r := rngutil.New(seed*7919 + uint64(m))
			g := randomOFGraph(r)
			n := g.N()
			var fs *fault.Schedule
			if seed%2 == 0 {
				fs = &fault.Schedule{}
				crashed := map[int]bool{}
				for k := 1 + r.Intn(3); k > 0; k-- {
					node := 1 + r.Intn(n-1)
					if crashed[node] {
						continue
					}
					crashed[node] = true
					at := int64(r.Intn(2 * m))
					reboot := int64(-1)
					if r.Bool(0.7) {
						reboot = at + 1 + int64(r.Intn(300))
					}
					fs.Crashes = append(fs.Crashes, fault.Crash{Node: node, At: at, RebootAt: reboot})
				}
			}
			cfg := sim.Config{
				Graph:          g,
				Schedules:      schedule.AssignUniform(n, 1+r.Intn(8), r.SubName("schedule")),
				M:              m,
				InjectInterval: 1 + r.Intn(2),
				Coverage:       1,
				Seed:           seed,
				MaxSlots:       1500,
				Faults:         fs,
			}
			a := aggr[(int(seed)+m)%len(aggr)]
			label := fmt.Sprintf("M=%d seed=%d aggr=%v", m, seed, a)
			lazyRes, lazyTr := runWith(t, cfg, &OF{Aggressiveness: a})
			eagerRes, eagerTr := runWith(t, cfg, eagerOF{&OF{Aggressiveness: a}})
			equalResults(t, lazyRes, eagerRes, label)
			equalTraces(t, lazyTr, eagerTr, label)
			if seed == 1 {
				label := fmt.Sprintf("M=%d NaN aggressiveness", m)
				treeRes, treeTr := runWith(t, cfg, &OF{DisableOpportunistic: true})
				for _, p := range []sim.Protocol{&OF{Aggressiveness: math.NaN()}, eagerOF{&OF{Aggressiveness: math.NaN()}}} {
					res, tr := runWith(t, cfg, p)
					equalResults(t, res, treeRes, label)
					equalTraces(t, tr, treeTr, label)
				}
			}
		}
	}
}

// equalResults asserts two runs' Results encode to the same JSON.
func equalResults(t *testing.T, a, b *sim.Result, context string) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("%s: results diverge", context)
	}
}
