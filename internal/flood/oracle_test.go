package flood

// Checks of the protocols against references they were not built from.
//
// Hand-derived traces: with deferProb zeroed and every contention
// probability at a degenerate end (stored uniforms compare as U < p, so
// p >= 1 always fires and p ~ 0 never does), a protocol on a small graph
// with perfect links makes no random decision at all, and its whole run
// can be worked out on paper from the protocol's rules. Each expected
// trace below is such a derivation; the comments give the deciding rule.
//
// Exact optimum: internal/exact's breadth-first search over the matrix
// model (one transmission and one reception per node per slot) is a lower
// bound on any engine run without overhearing on topology.Complete with
// schedule.AlwaysOn, PRR 1 and coverage 1.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ldcflood/internal/analysis"
	"ldcflood/internal/exact"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// eventLog records transmissions and coverage as "slot from>to pN outcome"
// and "slot cover pN" lines.
type eventLog []string

func (l *eventLog) OnInject(int64, int) {}

func (l *eventLog) OnTransmit(t int64, from, to, packet int, outcome sim.TxOutcome) {
	*l = append(*l, fmt.Sprintf("%d %d>%d p%d %s", t, from, to, packet, outcome))
}

func (l *eventLog) OnOverhear(t int64, from, node, packet int) {
	*l = append(*l, fmt.Sprintf("%d %d>%d p%d overheard", t, from, node, packet))
}

func (l *eventLog) OnCovered(t int64, packet int) {
	*l = append(*l, fmt.Sprintf("%d cover p%d", t, packet))
}

// degenerateLine is the path 0-1-2-3 with perfect links, every node
// always awake.
func degenerateLine() (*topology.Graph, []*schedule.Schedule) {
	g := topology.New(4)
	for v := 1; v < 4; v++ {
		g.AddLink(v-1, v, 1)
	}
	g.SortNeighbors()
	return g, []*schedule.Schedule{schedule.AlwaysOn(), schedule.AlwaysOn(), schedule.AlwaysOn(), schedule.AlwaysOn()}
}

// degenerateDiamond links the source 0 to 1 and 2, and 1 and 2 to 3; 1 and
// 2 cannot hear each other (no positions, so audibility is adjacency). Link
// 1-3 is the weak one (PRR 0.5), which only an OPT-style ranking avoids.
// Node 3 wakes at slots 3, 7, 11; the others are always awake.
func degenerateDiamond() (*topology.Graph, []*schedule.Schedule) {
	g := topology.New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(0, 2, 1)
	g.AddLink(1, 3, 0.5)
	g.AddLink(2, 3, 1)
	g.SortNeighbors()
	return g, []*schedule.Schedule{schedule.AlwaysOn(), schedule.AlwaysOn(), schedule.AlwaysOn(), schedule.NewSingleSlot(4, 3)}
}

// degenerateTie is degenerateDiamond with both links into node 3 at PRR
// 1: nodes 1 and 2 tie on link quality, so only the rank's id tie-break
// separates them.
func degenerateTie() (*topology.Graph, []*schedule.Schedule) {
	g := topology.New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(0, 2, 1)
	g.AddLink(1, 3, 1)
	g.AddLink(2, 3, 1)
	g.SortNeighbors()
	return g, []*schedule.Schedule{schedule.AlwaysOn(), schedule.AlwaysOn(), schedule.AlwaysOn(), schedule.NewSingleSlot(4, 3)}
}

// Hand-derived traces (M=2 on the line, M=1 on the diamond and the tie).
var (
	// Receiver-initiated FCFS forwarding down the line. Slot 1: node 1 is
	// both a receiver (of p1 from 0) and the only holder node 2 can use
	// (p0), so it transmits and its own reception fails busy
	// (semi-duplex).
	lineEager = []string{
		"0 0>1 p0 success",
		"1 0>1 p1 busy", "1 1>2 p0 success",
		"2 0>1 p1 success", "2 2>3 p0 success", "2 cover p0",
		"3 1>2 p1 success",
		"4 2>3 p1 success", "4 cover p1",
	}
	// Trickle with Imin 1, Imax 2 and suppression off: after its last
	// reception at r a node is armed at r, r+2, r+4, ... (a length-1
	// interval fires at its start, length-2 ones one slot in).
	lineTrickle = []string{
		"0 0>1 p0 success",
		"1 0>1 p1 success",
		"3 1>2 p0 success",
		"5 1>2 p1 busy", "5 2>3 p0 success", "5 cover p0",
		"7 1>2 p1 success",
		"9 2>3 p1 success", "9 cover p1",
	}
	// DFlood with Tmin 1, Tmax 2 (zero jitter) and the duplicate penalty
	// off: a packet received at r is first due at r+1, and every attempt
	// doubles the backoff (0's second try at p1 is due at 1+1+1 = 3).
	lineDFlood = []string{
		"1 0>1 p0 success",
		"2 0>1 p1 busy", "2 1>2 p0 success",
		"3 0>1 p1 success", "3 2>3 p0 success", "3 cover p0",
		"4 1>2 p1 success",
		"5 2>3 p1 success", "5 cover p1",
	}
	// Node 3's only non-colliding sender is node 2, over the PRR-1 link.
	diamondClean = []string{
		"0 0>1 p0 success",
		"1 0>2 p0 success",
		"3 2>3 p0 success", "3 cover p0",
	}
	// Node 2 wins node 3's contention and hidden node 1 fires anyway
	// (probability 1): they collide at every wake-up of node 3 and the
	// flood never completes within the 12-slot horizon.
	diamondCollide = []string{
		"0 0>1 p0 success",
		"1 0>2 p0 success",
		"3 2>3 p0 collision", "3 1>3 p0 collision",
		"7 2>3 p0 collision", "7 1>3 p0 collision",
		"11 2>3 p0 collision", "11 1>3 p0 collision",
	}
	// Nodes 1 and 2 reach node 3 at equal PRR; the lower id, node 1, ranks
	// first and serves it.
	tieLowerID = []string{
		"0 0>1 p0 success",
		"1 0>2 p0 success",
		"3 1>3 p0 success", "3 cover p0",
	}
	// Node 1 wins the tie; hidden node 2 fires after it (probability 1)
	// and they collide at every wake-up of node 3.
	tieCollide = []string{
		"0 0>1 p0 success",
		"1 0>2 p0 success",
		"3 1>3 p0 collision", "3 2>3 p0 collision",
		"7 1>3 p0 collision", "7 2>3 p0 collision",
		"11 1>3 p0 collision", "11 2>3 p0 collision",
	}
)

// TestDeterministicSubspaceHandDerived runs every protocol on the
// deterministic subspace and compares its trace with the derivation.
func TestDeterministicSubspaceHandDerived(t *testing.T) {
	defer setDeferProb(0)()
	const never = 1e-300 // a fire probability no stored uniform undercuts
	line, diamond, tie := "line", "diamond", "tie"
	cases := []struct {
		name  string
		topo  string
		mk    func() sim.Protocol
		trace []string
	}{
		{"opt", line, func() sim.Protocol { return &OPT{DisableOverhearing: true} }, lineEager},
		{"dbao", line, func() sim.Protocol { return &DBAO{DisableOverhearing: true, HiddenFireProb: 1} }, lineEager},
		{"naive", line, func() sim.Protocol { return &Naive{HiddenFireProb: 1} }, lineEager},
		{"of-tree-only", line, func() sim.Protocol { return &OF{DisableOpportunistic: true} }, lineEager},
		{"trickle", line, func() sim.Protocol {
			return &Trickle{Imin: 1, MaxDoublings: 1, K: -1, DisableOverhearing: true}
		}, lineTrickle},
		{"dflood", line, func() sim.Protocol {
			return &DFlood{Tmin: 1, Tmax: 2, Ndupl: -1, DisableOverhearing: true}
		}, lineDFlood},
		// OPT ranks by link quality: node 2 (PRR 1) over node 1 (PRR 0.5).
		{"opt", diamond, func() sim.Protocol { return &OPT{DisableOverhearing: true} }, diamondClean},
		// DBAO's back-off rank also puts node 2 first; hidden node 1 fires
		// on its uniform against HiddenFireProb.
		{"dbao-hidden-fire", diamond, func() sim.Protocol { return &DBAO{DisableOverhearing: true, HiddenFireProb: 1} }, diamondCollide},
		{"dbao-hidden-silent", diamond, func() sim.Protocol { return &DBAO{DisableOverhearing: true, HiddenFireProb: never} }, diamondClean},
		// Naive ranks by id with the origin rotated by slot: at slots 3, 7
		// and 11 the rotation (slot mod 2 = 1) elects node 2.
		{"naive-hidden-fire", diamond, func() sim.Protocol { return &Naive{HiddenFireProb: 1} }, diamondCollide},
		{"naive-hidden-silent", diamond, func() sim.Protocol { return &Naive{HiddenFireProb: never} }, diamondClean},
		// OF's energy-optimal tree reaches node 3 through node 2 (ETX 2 vs
		// 3); at maximal aggressiveness node 1 also forwards
		// opportunistically, colliding with the tree parent.
		{"of-tree-only", diamond, func() sim.Protocol { return &OF{DisableOpportunistic: true} }, diamondClean},
		{"of-max-aggressive", diamond, func() sim.Protocol { return &OF{Aggressiveness: 1e12} }, diamondCollide},
		// Equal link quality: the lower id wins OPT's and DBAO's rank.
		{"opt", tie, func() sim.Protocol { return &OPT{DisableOverhearing: true} }, tieLowerID},
		{"dbao-hidden-silent", tie, func() sim.Protocol { return &DBAO{DisableOverhearing: true, HiddenFireProb: never} }, tieLowerID},
		{"dbao-hidden-fire", tie, func() sim.Protocol { return &DBAO{DisableOverhearing: true, HiddenFireProb: 1} }, tieCollide},
	}
	for _, tc := range cases {
		t.Run(tc.topo+"/"+tc.name, func(t *testing.T) {
			g, scheds := degenerateLine()
			m := 2
			switch tc.topo {
			case diamond:
				g, scheds = degenerateDiamond()
				m = 1
			case tie:
				g, scheds = degenerateTie()
				m = 1
			}
			last := tc.trace[len(tc.trace)-1]
			wantDone := strings.HasSuffix(last, fmt.Sprintf("cover p%d", m-1))
			var log eventLog
			res, err := sim.Run(sim.Config{
				Graph: g, Schedules: scheds, Protocol: tc.mk(),
				M: m, Coverage: 1, Seed: 5, MaxSlots: 12,
				Observer: &log,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual([]string(log), tc.trace) {
				t.Fatalf("trace\n%q\nwant\n%q", log, tc.trace)
			}
			if res.Completed != wantDone {
				t.Fatalf("Completed = %v disagrees with the trace", res.Completed)
			}
		})
	}
}

// slowOptima pins exact.OptimalSlots for the instances whose search takes
// seconds (1.8 s, 1.9 s, 4.5 s and 47 s on a 2-vCPU Xeon host); every
// other multi-packet instance is searched when the test runs.
var slowOptima = map[[2]int]int{{5, 4}: 6, {7, 3}: 5, {10, 2}: 5, {11, 2}: 5}

// optimum returns the minimum number of slots in which the matrix model
// floods m packets from a source to n sensors. The single-packet optimum
// is Lemma 2's ⌈log2(1+N)⌉; the search confirms it for N <= 11 here (and
// reproduces it through N = 18 in minutes), so larger single-packet
// instances use the closed form.
func optimum(t *testing.T, n, m int) int {
	t.Helper()
	if m == 1 && n > 11 {
		return analysis.FWLFloor(n)
	}
	if v, ok := slowOptima[[2]int{n, m}]; ok {
		return v
	}
	res, err := exact.OptimalSlots(exact.Config{N: n, M: m})
	if err != nil {
		t.Fatalf("N=%d M=%d: %v", n, m, err)
	}
	if m == 1 && res.Slots != analysis.FWLFloor(n) {
		t.Fatalf("N=%d: exact single-packet optimum %d, Lemma 2 says %d", n, res.Slots, analysis.FWLFloor(n))
	}
	return res.Slots
}

// TestExactOptimumLowerBound is ROADMAP item 3(a)'s oracle: on a complete
// graph with every node always awake, perfect links and full coverage,
// every configuration without overhearing needs at least the exact optimum
// number of slots, for every (N, M) with (N+1)·M <= 24. Overhearing is
// excluded because one overheard transmission can reach several nodes,
// which the matrix model forbids.
func TestExactOptimumLowerBound(t *testing.T) {
	t.Parallel()
	configs := []struct {
		name string
		mk   func() sim.Protocol
	}{
		{"naive", func() sim.Protocol { return NewNaive() }},
		{"of", func() sim.Protocol { return NewOF() }},
		{"opt", func() sim.Protocol { return &OPT{DisableOverhearing: true} }},
		{"dbao", func() sim.Protocol { return &DBAO{DisableOverhearing: true} }},
		{"dflood", func() sim.Protocol { return &DFlood{DisableOverhearing: true} }},
		{"trickle", func() sim.Protocol { return &Trickle{DisableOverhearing: true} }},
	}
	for _, c := range configs {
		if c.mk().Overhears() {
			t.Fatalf("%s overhears; the matrix-model bound does not apply", c.name)
		}
	}
	for n := 1; n <= 23; n++ {
		g := topology.Complete(n+1, 1)
		scheds := make([]*schedule.Schedule, n+1)
		for i := range scheds {
			scheds[i] = schedule.AlwaysOn()
		}
		for m := 1; (n+1)*m <= 24; m++ {
			opt := optimum(t, n, m)
			for _, c := range configs {
				for seed := uint64(1); seed <= 3; seed++ {
					res, err := sim.Run(sim.Config{
						Graph: g, Schedules: scheds, Protocol: c.mk(),
						M: m, Coverage: 1, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Completed {
						t.Fatalf("%s N=%d M=%d seed %d: flood incomplete after %d slots", c.name, n, m, seed, res.TotalSlots)
					}
					if res.TotalSlots < int64(opt) {
						t.Errorf("%s N=%d M=%d seed %d: %d slots, below the exact optimum %d",
							c.name, n, m, seed, res.TotalSlots, opt)
					}
				}
			}
		}
	}
}

// TestExactOptimumAlignment pins how the engine's slots line up with the
// search's, on the one instance small enough to check by hand: N=1, M=1.
// The source injects packet 0 at the start of slot 0 and unicasts it to the
// lone sensor in that same slot, so the packet is covered at slot 0 and the
// run lasts 1 slot; the search's optimum is 1 slot as well. A protocol that
// always serves a waiting receiver at once therefore meets the bound with
// equality — the comparison above is TotalSlots against Slots, not
// off by one.
func TestExactOptimumAlignment(t *testing.T) {
	res, err := exact.OptimalSlots(exact.Config{N: 1, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 1 {
		t.Fatalf("exact optimum for N=1, M=1 = %d, want 1", res.Slots)
	}
	g := topology.Complete(2, 1)
	scheds := []*schedule.Schedule{schedule.AlwaysOn(), schedule.AlwaysOn()}
	for _, name := range []string{"opt", "dbao", "of", "naive"} {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		run, err := sim.Run(sim.Config{Graph: g, Schedules: scheds, Protocol: p, M: 1, Coverage: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if run.CoverTime[0] != 0 || run.TotalSlots != 1 || run.Transmissions != 1 {
			t.Errorf("%s: covered at %d after %d slots and %d transmissions, want slot 0, 1 slot, 1 transmission",
				name, run.CoverTime[0], run.TotalSlots, run.Transmissions)
		}
	}
}
