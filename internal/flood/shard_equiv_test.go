package flood

// Rerun determinism with the real protocols: every run must reproduce
// itself across every protocol × fault family. Every run captures its
// trace (tracebin), and the byte-identity guarantee is asserted on the
// trace bytes. Also certifies the carrier-sense relation against a
// brute-force distance reference.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
)

// runSharded executes one configuration, returning the result and its
// trace bytes. A fresh protocol instance per run keeps memoized state from
// crossing runs.
func runSharded(t *testing.T, cfg sim.Config, protocol string) (*sim.Result, []byte) {
	t.Helper()
	p, err := New(protocol)
	if err != nil {
		t.Fatal(err)
	}
	return runWith(t, cfg, p)
}

// runWith is runSharded for a given protocol instance.
func runWith(t *testing.T, cfg sim.Config, p sim.Protocol) (*sim.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := tracebin.NewWriter(&buf)
	c := cfg
	c.Protocol = p
	c.Observer = w
	res, err := sim.Run(c)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// equalTraces asserts byte-identity of two runs' traces.
func equalTraces(t *testing.T, a, b []byte, context string) {
	t.Helper()
	if !bytes.Equal(a, b) {
		t.Errorf("%s: traces diverge", context)
	}
}

// shardCfg is faultCfg with the engine's sync-error stream enabled, so the
// keyed discipline is exercised on every draw family at once.
func shardCfg(g *topology.Graph, faults *fault.Schedule, seed uint64) sim.Config {
	cfg := faultCfg(g, faults, seed)
	cfg.SyncErrorProb = 0.02
	return cfg
}

// TestShardEquivalenceGrid is the rerun acceptance grid: for every
// protocol × every fault family (plus the unfaulted case), a rerun must
// produce an identical result and a byte-identical trace.
func TestShardEquivalenceGrid(t *testing.T) {
	schedules := faultSchedules()
	schedules["none"] = nil
	for name, fs := range schedules {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := topology.Grid(6, 6, 0.8)
			cfg := shardCfg(g, fs, 1234)
			for _, protocol := range Names() {
				ref, refTrace := runSharded(t, cfg, protocol)
				again, againTrace := runSharded(t, cfg, protocol)
				if !reflect.DeepEqual(ref, again) {
					t.Errorf("%s: rerun diverged", protocol)
				}
				equalTraces(t, refTrace, againTrace, protocol+" rerun")
			}
		})
	}
}

// TestAudibilityMatchesDistance certifies the carrier-sense relation
// against a brute-force reference over every ordered pair: with positions,
// pu.Dist(pv) <= csRange; without, the communication adjacency. The
// hand-placed graph puts pairs exactly at csRange and one ulp either side,
// along an axis and along a diagonal, where the squared-distance fast path
// must defer to the correctly-rounded distance.
func TestAudibilityMatchesDistance(t *testing.T) {
	check := func(name string, g *topology.Graph, csFactor float64) {
		t.Helper()
		a := newAudibility(g, csFactor)
		var csRange float64
		if g.Pos != nil {
			csRange = carrierSenseRange(g, csFactor)
		}
		n := g.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				want := g.HasLink(u, v)
				if g.Pos != nil {
					want = g.Pos[u].Dist(g.Pos[v]) <= csRange
				}
				if got := a.has(u, v); got != want {
					t.Fatalf("%s, factor %v: has(%d, %d) = %v, reference %v", name, csFactor, u, v, got, want)
				}
			}
		}
	}
	factors := []float64{1, 1.2, 2, 2.5}
	graphs := map[string]*topology.Graph{"testbed 3": topology.Testbed(3)}
	for _, seed := range []uint64{1, 2, 3, 9} {
		graphs[fmt.Sprintf("greenorbs %d", seed)] = topology.GreenOrbs(seed)
	}
	posFree := topology.GreenOrbs(1).Clone()
	posFree.Pos = nil
	graphs["position-free greenorbs 1"] = posFree
	for name, g := range graphs {
		for _, f := range factors {
			check(name, g, f)
		}
	}

	// One 3-4-5 link fixes csRange = 5f; nodes 2..7 sit at csRange from
	// node 0 and one ulp inside and outside it.
	for _, f := range factors {
		g := topology.New(8)
		g.AddLink(0, 1, 0.9)
		g.SortNeighbors()
		g.Pos = make([]topology.Point, 8)
		g.Pos[1] = topology.Point{X: 3, Y: 4}
		r := carrierSenseRange(g, f)
		for i, d := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1))} {
			g.Pos[2+i] = topology.Point{X: d}
			g.Pos[5+i] = topology.Point{X: 0.6 * r, Y: math.Sqrt(d*d - 0.36*r*r)}
		}
		a := newAudibility(g, f)
		if !a.has(0, 2) || !a.has(0, 3) || a.has(0, 4) {
			t.Fatalf("factor %v: axis pairs at csRange, -1 ulp, +1 ulp: %v %v %v, want true true false",
				f, a.has(0, 2), a.has(0, 3), a.has(0, 4))
		}
		check(fmt.Sprintf("hand-placed, factor %v", f), g, f)
	}
}
