package flood

import (
	"testing"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/stats"
	"ldcflood/internal/topology"
)

func alwaysOn(n int) []*schedule.Schedule {
	out := make([]*schedule.Schedule, n)
	for i := range out {
		out[i] = schedule.AlwaysOn()
	}
	return out
}

func uniform(n, period int, seed uint64) []*schedule.Schedule {
	return schedule.AssignUniform(n, period, rngutil.New(seed).SubName("schedule"))
}

func TestNewRegistry(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("%q has empty display name", name)
		}
	}
	if p, err := New("OPT"); err != nil || p.Name() != "OPT" {
		t.Fatal("registry should be case-insensitive")
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func runOn(t *testing.T, g *topology.Graph, scheds []*schedule.Schedule, p sim.Protocol, m int, seed uint64, maxSlots int64) *sim.Result {
	t.Helper()
	// 99% coverage, exactly as the paper's evaluation: demanding 100%
	// makes the worst-connected sensors dominate every metric.
	res, err := sim.Run(sim.Config{
		Graph: g, Schedules: scheds, Protocol: p,
		M: m, Coverage: 0.99, Seed: seed, MaxSlots: maxSlots,
	})
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return res
}

func TestAllProtocolsCompleteOnLine(t *testing.T) {
	g := topology.Line(6, 1)
	for _, name := range Names() {
		p, _ := New(name)
		res := runOn(t, g, alwaysOn(6), p, 2, 1, 10000)
		if !res.Completed {
			t.Fatalf("%s did not complete on a perfect line", name)
		}
	}
}

func TestAllProtocolsCompleteOnLossyGrid(t *testing.T) {
	g := topology.Grid(5, 5, 0.7)
	for _, name := range Names() {
		p, _ := New(name)
		res := runOn(t, g, uniform(25, 10, 7), p, 5, 2, 2_000_000)
		if !res.Completed {
			t.Fatalf("%s did not complete on lossy grid", name)
		}
		if res.MeanDelay() <= 0 {
			t.Fatalf("%s mean delay %v", name, res.MeanDelay())
		}
	}
}

func TestOPTReceivesFromBestNeighbor(t *testing.T) {
	// Node 2 has two holders: node 0 (PRR 0.4) and node 1 (PRR 0.9, seeded
	// via a perfect 0-1 link). Once both hold the packet, OPT must deliver
	// to 2 from node 1.
	g := topology.New(3)
	g.AddLink(0, 1, 1)
	g.AddLink(0, 2, 0.4)
	g.AddLink(1, 2, 0.9)
	g.SortNeighbors()
	// Node 2 sleeps until slot 5; by then node 1 holds the packet.
	scheds := []*schedule.Schedule{
		schedule.AlwaysOn(),
		schedule.AlwaysOn(),
		schedule.NewSingleSlot(6, 5),
	}
	res := runOn(t, g, scheds, NewOPT(), 1, 1, 1000)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	// Node 1 transmitted at least once (it is the best holder for node 2).
	if res.TxPerNode[1] == 0 {
		t.Fatal("OPT did not use the best-quality neighbor")
	}
}

func TestOPTNeverCollides(t *testing.T) {
	g := topology.GreenOrbs(2)
	res := runOn(t, g, uniform(g.N(), 10, 3), NewOPT(), 5, 4, 1_000_000)
	if res.CollisionFailures != 0 {
		t.Fatalf("OPT recorded %d collisions", res.CollisionFailures)
	}
}

func TestDBAOCarrierSenseSuppressesAudibleCandidates(t *testing.T) {
	// Triangle 0-1-2 plus receiver 3 linked to both 1 and 2; 1 and 2 hear
	// each other, so only the better-ranked of them fires — no collision.
	g := topology.New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(0, 2, 1)
	g.AddLink(1, 2, 1)
	g.AddLink(1, 3, 0.9)
	g.AddLink(2, 3, 0.8)
	g.SortNeighbors()
	res := runOn(t, g, alwaysOn(4), NewDBAO(), 1, 1, 100)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.CollisionFailures != 0 {
		t.Fatalf("audible candidates collided %d times", res.CollisionFailures)
	}
}

func TestDBAOHiddenTerminalsCollide(t *testing.T) {
	// Nodes 1 and 2 cannot hear each other (no 1-2 link) and both hold the
	// packet; both will fire at receiver 3 -> collision.
	g := topology.New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(0, 2, 1)
	g.AddLink(1, 3, 0.9)
	g.AddLink(2, 3, 0.9)
	g.SortNeighbors()
	// Node 3 wakes late so both 1 and 2 are seeded first.
	scheds := []*schedule.Schedule{
		schedule.AlwaysOn(),
		schedule.AlwaysOn(),
		schedule.AlwaysOn(),
		schedule.NewSingleSlot(8, 5),
	}
	res := runOn(t, g, scheds, NewDBAO(), 1, 1, 9)
	if res.CollisionFailures == 0 {
		t.Fatal("hidden terminals did not collide")
	}
}

func TestDBAOOverhearingReducesTransmissions(t *testing.T) {
	g := topology.GreenOrbs(5)
	scheds := uniform(g.N(), 10, 11)
	with := runOn(t, g, scheds, NewDBAO(), 5, 6, 1_000_000)
	without := runOn(t, g, scheds, &DBAO{DisableOverhearing: true}, 5, 6, 1_000_000)
	if !with.Completed || !without.Completed {
		t.Fatal("runs incomplete")
	}
	if with.Overheard == 0 {
		t.Fatal("overhearing never happened on a dense graph")
	}
	if with.Transmissions >= without.Transmissions {
		t.Fatalf("overhearing did not reduce transmissions: %d vs %d", with.Transmissions, without.Transmissions)
	}
}

func TestOFBuildsTreeAndCompletes(t *testing.T) {
	g := topology.GreenOrbs(4)
	res := runOn(t, g, uniform(g.N(), 10, 13), NewOF(), 5, 8, 2_000_000)
	if !res.Completed {
		t.Fatal("OF incomplete")
	}
}

func TestOFOpportunisticAblation(t *testing.T) {
	g := topology.GreenOrbs(6)
	scheds := uniform(g.N(), 20, 17)
	full := runOn(t, g, scheds, NewOF(), 10, 9, 2_000_000)
	treeOnly := runOn(t, g, scheds, &OF{DisableOpportunistic: true}, 10, 9, 2_000_000)
	if !full.Completed || !treeOnly.Completed {
		t.Fatal("runs incomplete")
	}
	// Opportunistic links should help (or at worst be a wash); allow 10%
	// tolerance for stochastic noise.
	if full.MeanDelay() > treeOnly.MeanDelay()*1.10 {
		t.Fatalf("opportunistic forwarding hurt delay: %.1f vs %.1f", full.MeanDelay(), treeOnly.MeanDelay())
	}
}

func TestProtocolOrderingOnGreenOrbs(t *testing.T) {
	// The paper's central evaluation result (Fig. 9/10): OPT <= DBAO <= OF
	// in mean flooding delay on the GreenOrbs trace at 5% duty cycle.
	if testing.Short() {
		t.Skip("ordering sweep is slow")
	}
	g := topology.GreenOrbs(1)
	period := 20 // 5% duty
	m := 20
	delay := map[string]float64{}
	for _, name := range []string{"opt", "dbao", "of"} {
		p, _ := New(name)
		var sum float64
		runs := 2
		for seed := uint64(0); seed < uint64(runs); seed++ {
			scheds := uniform(g.N(), period, 100+seed)
			res, err := sim.Run(sim.Config{
				Graph: g, Schedules: scheds, Protocol: p,
				M: m, Coverage: 0.99, Seed: seed, MaxSlots: 2_000_000,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Completed {
				t.Fatalf("%s incomplete", name)
			}
			sum += res.MeanDelay()
		}
		delay[name] = sum / float64(runs)
	}
	t.Logf("mean delays: OPT=%.1f DBAO=%.1f OF=%.1f", delay["opt"], delay["dbao"], delay["of"])
	if delay["opt"] > delay["dbao"]*1.02 {
		t.Fatalf("OPT (%.1f) slower than DBAO (%.1f)", delay["opt"], delay["dbao"])
	}
	if delay["dbao"] > delay["of"]*1.02 {
		t.Fatalf("DBAO (%.1f) slower than OF (%.1f)", delay["dbao"], delay["of"])
	}
}

func TestProtocolGapIsStatisticallySignificant(t *testing.T) {
	// The OF-vs-OPT delay gap is not seed noise: pool per-packet delays
	// over several runs and require Mann-Whitney significance.
	g := topology.GreenOrbs(1)
	collect := func(name string) []float64 {
		var out []float64
		for seed := uint64(0); seed < 3; seed++ {
			p, _ := New(name)
			res, err := sim.Run(sim.Config{
				Graph:     g,
				Schedules: uniform(g.N(), 20, 200+seed),
				Protocol:  p,
				M:         10,
				Coverage:  0.99,
				Seed:      seed,
				MaxSlots:  2_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range res.Delay {
				if d >= 0 {
					out = append(out, float64(d))
				}
			}
		}
		return out
	}
	opt := collect("opt")
	of := collect("of")
	res, err := stats.MannWhitney(opt, of)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.01 {
		t.Fatalf("OF vs OPT gap not significant: p=%v", res.P)
	}
	// Effect direction: OPT delays stochastically below OF's.
	if res.Effect > 0.3 {
		t.Fatalf("effect size %v: OPT should dominate OF", res.Effect)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := topology.GreenOrbs(9)
	for _, name := range Names() {
		mk := func() *sim.Result {
			p, _ := New(name)
			return runOn(t, g, uniform(g.N(), 10, 21), p, 3, 5, 1_000_000)
		}
		a, b := mk(), mk()
		if a.MeanDelay() != b.MeanDelay() || a.Failures() != b.Failures() {
			t.Fatalf("%s not deterministic", name)
		}
	}
}
