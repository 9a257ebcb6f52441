package flood

// Large-topology completion test: a 100k-node ScaledGreenOrbs flood must
// finish on the sharded engine within O(n+m) memory. This is the tier-2
// acceptance check behind the committed BENCH_scale.json numbers — it
// certifies correctness and the memory bound, while engbench -scale owns
// the timing. Skipped under -short; takes a few seconds at full scale.

import (
	"runtime"
	"testing"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

func TestHundredThousandNodeFloodCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node flood skipped in -short mode")
	}
	const nodes = 100000
	g, err := topology.GenerateGreenOrbs(topology.ScaledGreenOrbsConfig(nodes), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != nodes {
		t.Fatalf("scaled greenorbs has %d nodes, want %d", g.N(), nodes)
	}
	scheds := schedule.AssignUniform(g.N(), 100, rngutil.New(1).SubName("schedule"))
	p, err := New("opt")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Graph:     g,
		Schedules: scheds,
		Protocol:  p,
		M:         4,
		Coverage:  0.99,
		Seed:      1,
		MaxSlots:  2000000,
	}

	// TotalAlloc delta across the run bounds the engine's heap appetite.
	// O(n+m) structures at this scale cost on the order of 100 B/node
	// (BENCH_scale.json records ~140); a single O(n^2) structure — one
	// n-by-n bitset — would already cost 12.5 kB/node. The 4 kB/node
	// ceiling separates the two regimes with a wide margin on both sides.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	if !res.Completed {
		t.Fatalf("flood did not reach %.0f%% coverage within %d slots", cfg.Coverage*100, cfg.MaxSlots)
	}
	for pkt, ct := range res.CoverTime {
		if ct < 0 {
			t.Fatalf("packet %d never reached %d nodes", pkt, res.CoverNodes)
		}
	}
	bytesPerNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(nodes)
	if bytesPerNode > 4096 {
		t.Fatalf("engine allocated %.0f B/node, want <= 4096 (O(n+m) bound)", bytesPerNode)
	}
	t.Logf("100k flood: %d slots, cover target %d nodes, %.0f B/node", res.TotalSlots, res.CoverNodes, bytesPerNode)
}
