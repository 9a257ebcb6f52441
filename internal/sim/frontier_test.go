package sim

// World.Frontier against its definition: at every visited slot it must
// list, ascending, exactly the nodes that are scheduled awake and not
// crashed, lack an injected packet, and have a neighbour holding at least
// one packet, computed from scratch off the schedules, the fault schedule
// and the possession bits. NeedsAnything, which reads the same per-node
// state, is checked at every node.

import (
	"fmt"
	"slices"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
)

// frontierProbe drives chaosProtocol and checks Frontier at the top of
// every Intents call.
type frontierProbe struct {
	chaosProtocol
	t       *testing.T
	label   string
	crashes []fault.Crash
	// checks counts visited slots; excluded counts awake, needy nodes
	// left out for having no holder neighbour.
	checks, excluded int
}

func (f *frontierProbe) Intents(w *World) []Intent {
	f.check(w)
	return f.chaosProtocol.Intents(w)
}

// down reports whether node is crashed at slot t.
func (f *frontierProbe) down(node int, t int64) bool {
	for _, c := range f.crashes {
		if c.Node == node && c.At <= t && (c.RebootAt < 0 || t < c.RebootAt) {
			return true
		}
	}
	return false
}

func (f *frontierProbe) check(w *World) {
	f.t.Helper()
	t := w.Now()
	holds := func(v int) bool {
		for p := 0; p < w.M; p++ {
			if w.Has(p, v) {
				return true
			}
		}
		return false
	}
	var want []int
	for v := 0; v < w.Graph.N(); v++ {
		needy := false
		for p := 0; p < w.Injected(); p++ {
			needy = needy || !w.Has(p, v)
		}
		if w.NeedsAnything(v) != needy {
			f.t.Fatalf("%s, slot %d: NeedsAnything(%d) = %v, brute force %v", f.label, t, v, !needy, needy)
		}
		if !needy || !w.Schedules[v].IsActive(t) || f.down(v, t) {
			continue
		}
		nbrHolds := false
		for _, l := range w.Graph.Neighbors(v) {
			nbrHolds = nbrHolds || holds(l.To)
		}
		if nbrHolds {
			want = append(want, v)
		} else {
			f.excluded++
		}
	}
	if got := w.Frontier(); !slices.Equal(got, want) {
		f.t.Fatalf("%s, slot %d: Frontier() = %v, brute force %v", f.label, t, got, want)
	}
	f.checks++
}

// TestFrontierMatchesBruteForce floods random graphs with a chaotic
// protocol at M ∈ {1, 64, 65}, under crash/reboot churn (a crash empties
// a node and lowers its neighbours' holder counts), on both the skipping
// loop and the every-slot reference, and holds Frontier to its brute-force
// definition at every visited slot.
func TestFrontierMatchesBruteForce(t *testing.T) {
	var checks, excluded, dropped int
	for _, m := range []int{1, 64, 65} {
		for seed := uint64(1); seed <= 6; seed++ {
			r := rngutil.New(seed*3571 + uint64(m))
			g := randomConnectedGraph(r)
			n := g.N()
			fs := &fault.Schedule{}
			crashed := map[int]bool{}
			for k := 1 + r.Intn(4); k > 0; k-- {
				node := 1 + r.Intn(n-1)
				if crashed[node] {
					continue
				}
				crashed[node] = true
				at := int64(r.Intn(20 * m))
				reboot := int64(-1)
				if r.Bool(0.7) {
					reboot = at + 1 + int64(r.Intn(300))
				}
				fs.Crashes = append(fs.Crashes, fault.Crash{Node: node, At: at, RebootAt: reboot})
			}
			probe := &frontierProbe{
				chaosProtocol: chaosProtocol{
					rng:      r.SubName("chaos"),
					density:  0.2 + 0.6*r.Float64(),
					collide:  r.Bool(0.5),
					overhear: r.Bool(0.7),
				},
				t:       t,
				label:   fmt.Sprintf("M=%d seed=%d", m, seed),
				crashes: fs.Crashes,
			}
			res, err := run(Config{
				Graph:          g,
				Schedules:      schedule.AssignUniform(n, 1+r.Intn(6), r.SubName("schedule")),
				Protocol:       probe,
				M:              m,
				InjectInterval: 1 + r.Intn(2),
				Coverage:       1,
				Seed:           seed,
				MaxSlots:       1500,
				Faults:         fs,
			}, seed%2 == 0)
			if err != nil {
				t.Fatalf("%s: %v", probe.label, err)
			}
			checks += probe.checks
			excluded += probe.excluded
			dropped += res.CrashDropped
		}
	}
	if excluded == 0 || dropped == 0 {
		t.Fatalf("grid never left out an awake needy node (%d) or dropped a packet in a crash (%d)", excluded, dropped)
	}
	t.Logf("%d visited slots checked, %d awake needy nodes left out, %d packet copies dropped in crashes", checks, excluded, dropped)
}
