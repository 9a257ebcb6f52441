package tree

import (
	"math"
	"testing"
	"testing/quick"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/topology"
)

func TestEnergyOptimalLine(t *testing.T) {
	g := topology.Line(5, 0.5) // ETX 2 per hop
	tr := EnergyOptimal(g, 0)
	for v := 1; v < 5; v++ {
		if tr.Parent[v] != v-1 {
			t.Fatalf("parent[%d] = %d, want %d", v, tr.Parent[v], v-1)
		}
		if tr.Cost[v] != float64(2*v) {
			t.Fatalf("cost[%d] = %v, want %v", v, tr.Cost[v], 2*v)
		}
		if tr.Depth[v] != v {
			t.Fatalf("depth[%d] = %d", v, tr.Depth[v])
		}
	}
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyOptimalPrefersGoodLinks(t *testing.T) {
	// Triangle: 0-1 direct with PRR 0.3 (ETX 3.33), or 0-2-1 with PRR 0.9
	// each (ETX 1.11+1.11 = 2.22). The tree must route 1 via 2.
	g := topology.New(3)
	g.AddLink(0, 1, 0.3)
	g.AddLink(0, 2, 0.9)
	g.AddLink(2, 1, 0.9)
	tr := EnergyOptimal(g, 0)
	if tr.Parent[1] != 2 {
		t.Fatalf("parent[1] = %d, want 2 (two good hops beat one bad)", tr.Parent[1])
	}
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestUnreachableNodes(t *testing.T) {
	g := topology.New(4)
	g.AddLink(0, 1, 0.8)
	// 2, 3 isolated.
	tr := EnergyOptimal(g, 0)
	for _, v := range []int{2, 3} {
		if tr.Parent[v] != -1 || tr.Depth[v] != -1 || !math.IsInf(tr.Cost[v], 1) {
			t.Fatalf("isolated node %d not marked unreachable", v)
		}
	}
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestChildrenConsistent(t *testing.T) {
	g := topology.GreenOrbs(3)
	tr := EnergyOptimal(g, 0)
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
	count := 0
	for p, kids := range tr.Children {
		for _, k := range kids {
			if tr.Parent[k] != p {
				t.Fatalf("child %d of %d has parent %d", k, p, tr.Parent[k])
			}
			count++
		}
	}
	// A spanning tree of a connected graph has n-1 edges.
	if count != g.N()-1 {
		t.Fatalf("tree has %d edges for %d nodes", count, g.N())
	}
	for v, d := range tr.Depth {
		if d == -1 {
			t.Fatalf("GreenOrbs tree must span: node %d unreachable", v)
		}
	}
}

func TestExpectedDelayShape(t *testing.T) {
	g := topology.GreenOrbs(3)
	tr := EnergyOptimal(g, 0)
	d10 := tr.ExpectedDelay(g, 10)
	d20 := tr.ExpectedDelay(g, 20)
	if d10[0] != 0 {
		t.Fatalf("root delay = %v", d10[0])
	}
	for v := 1; v < g.N(); v++ {
		if d10[v] <= 0 {
			t.Fatalf("node %d delay %v not positive", v, d10[v])
		}
		if d20[v] <= d10[v] {
			t.Fatalf("node %d: delay must grow with period (%v vs %v)", v, d20[v], d10[v])
		}
		// Children are farther than parents.
		p := tr.Parent[v]
		if d10[v] <= d10[p] {
			t.Fatalf("node %d delay %v <= parent %d delay %v", v, d10[v], p, d10[p])
		}
	}
}

func TestExpectedDelayPanics(t *testing.T) {
	g := topology.Line(3, 0.9)
	tr := EnergyOptimal(g, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("period 0 did not panic")
		}
	}()
	tr.ExpectedDelay(g, 0)
}

func TestRootOutOfRangePanics(t *testing.T) {
	g := topology.Line(3, 0.9)
	for i, f := range []func(){
		func() { EnergyOptimal(g, -1) },
		func() { EnergyOptimal(g, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := topology.Line(4, 0.9)
	tr := EnergyOptimal(g, 0)
	// Corrupt: make node 3's parent a non-neighbor.
	tr.Parent[3] = 0
	if err := tr.Validate(g); err == nil {
		t.Fatal("Validate missed non-neighbor parent")
	}
	tr = EnergyOptimal(g, 0)
	tr.Depth[2] = 7
	if err := tr.Validate(g); err == nil {
		t.Fatal("Validate missed inconsistent depth")
	}
}

// Property: on random connected graphs, Dijkstra costs are monotone along
// tree paths and the tree validates.
func TestQuickDijkstraInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.New(seed)
		n := 3 + r.Intn(30)
		g := topology.New(n)
		// Random connected graph: spanning chain + extra links.
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
		tr := EnergyOptimal(g, 0)
		if err := tr.Validate(g); err != nil {
			return false
		}
		for _, d := range tr.Depth {
			if d == -1 {
				return false
			}
		}
		for v := 1; v < n; v++ {
			if tr.Cost[v] <= tr.Cost[tr.Parent[v]] {
				return false
			}
			// Tree cost can never beat the direct link's ETX when present.
			if prr := g.PRR(0, v); prr > 0 && tr.Cost[v] > 1/prr+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnergyOptimalGreenOrbs(b *testing.B) {
	g := topology.GreenOrbs(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EnergyOptimal(g, 0)
	}
}
