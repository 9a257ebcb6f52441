package topology

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ldcflood/internal/rngutil"
)

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAddLinkBasics(t *testing.T) {
	g := New(3)
	g.AddLink(0, 1, 0.8)
	if !g.HasLink(0, 1) || !g.HasLink(1, 0) {
		t.Fatal("link not symmetric")
	}
	if g.PRR(0, 1) != 0.8 || g.PRR(1, 0) != 0.8 {
		t.Fatalf("PRR = %v / %v", g.PRR(0, 1), g.PRR(1, 0))
	}
	if g.PRR(0, 2) != 0 {
		t.Fatal("absent link should have PRR 0")
	}
	if g.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d", g.NumLinks())
	}
	// Replacement, not duplication.
	g.AddLink(0, 1, 0.5)
	if g.NumLinks() != 1 || g.PRR(1, 0) != 0.5 {
		t.Fatalf("link replacement failed: links=%d prr=%v", g.NumLinks(), g.PRR(1, 0))
	}
}

func TestAddLinkPanics(t *testing.T) {
	cases := []func(){
		func() { New(2).AddLink(0, 0, 0.5) },
		func() { New(2).AddLink(0, 2, 0.5) },
		func() { New(2).AddLink(-1, 1, 0.5) },
		func() { New(2).AddLink(0, 1, 0) },
		func() { New(2).AddLink(0, 1, 1.5) },
	}
	for i, f := range cases {
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

func TestRemoveLink(t *testing.T) {
	g := New(3)
	g.AddLink(0, 1, 0.9)
	g.AddLink(1, 2, 0.9)
	if !g.RemoveLink(1, 0) {
		t.Fatal("RemoveLink returned false for existing link")
	}
	if g.HasLink(0, 1) || g.HasLink(1, 0) {
		t.Fatal("link not removed symmetrically")
	}
	if g.RemoveLink(0, 1) {
		t.Fatal("RemoveLink returned true for absent link")
	}
	if g.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d", g.NumLinks())
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := New(4)
	g.AddLink(0, 1, 0.9)
	g.AddLink(0, 2, 0.8)
	g.AddLink(0, 3, 0.7)
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(1))
	}
	g.SortNeighbors()
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1].To >= nb[i].To {
			t.Fatal("neighbors not sorted")
		}
	}
}

func TestLinksOrderedUnique(t *testing.T) {
	g := New(4)
	g.AddLink(2, 1, 0.5)
	g.AddLink(0, 3, 0.6)
	g.AddLink(0, 1, 0.7)
	edges := g.Links()
	if len(edges) != 3 {
		t.Fatalf("Links returned %d edges", len(edges))
	}
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %d not ordered: %+v", i, e)
		}
		if i > 0 {
			prev := edges[i-1]
			if prev.U > e.U || (prev.U == e.U && prev.V >= e.V) {
				t.Fatal("edges not globally ordered")
			}
		}
	}
}

func TestClone(t *testing.T) {
	g := Grid(3, 3, 0.9)
	c := g.Clone()
	c.AddLink(0, 8, 0.5)
	if g.HasLink(0, 8) {
		t.Fatal("Clone shares adjacency storage")
	}
	c.Pos[0].X = 999
	if g.Pos[0].X == 999 {
		t.Fatal("Clone shares position storage")
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := New(2)
	g.AddLink(0, 1, 0.5)
	// Corrupt one direction directly.
	g.adj[0][0].PRR = 0.6
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric PRR")
	}
}

func TestValidateCatchesPosMismatch(t *testing.T) {
	g := New(3)
	g.Pos = make([]Point, 2)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed position/node mismatch")
	}
}

func TestValidateRejectsNonFinitePositions(t *testing.T) {
	for _, bad := range []Point{{X: math.Inf(1)}, {Y: math.Inf(-1)}, {X: math.NaN()}, {Y: math.NaN()}} {
		g := New(3)
		g.AddLink(0, 1, 0.5)
		g.Pos = []Point{{}, {X: 1}, bad}
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), "node 2") {
			t.Fatalf("position %v: Validate returned %v, want an error naming node 2", bad, err)
		}
	}
	for _, text := range []string{"Inf 0", "0 -Inf", "NaN 0"} {
		in := "graph g 2\nnode 0 0 0\nnode 1 " + text + "\nlink 0 1 0.5\n"
		if _, err := ReadText(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Fatalf("ReadText accepted node 1 at %q: %v", text, err)
		}
	}
}

func TestBestNeighbor(t *testing.T) {
	g := New(4)
	g.AddLink(0, 1, 0.5)
	g.AddLink(0, 2, 0.9)
	g.AddLink(0, 3, 0.9)
	g.SortNeighbors()
	v, prr, ok := g.BestNeighbor(0)
	if !ok || v != 2 || prr != 0.9 {
		t.Fatalf("BestNeighbor = %d, %v, %v (want 2, 0.9 — lowest id wins tie)", v, prr, ok)
	}
	_, _, ok = New(2).BestNeighbor(0)
	if ok {
		t.Fatal("BestNeighbor on isolated node should report !ok")
	}
}

func TestComponentsAndConnectivity(t *testing.T) {
	g := New(5)
	g.AddLink(0, 1, 0.9)
	g.AddLink(2, 3, 0.9)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("Components = %d, want 3", len(comps))
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	g.AddLink(1, 2, 0.9)
	g.AddLink(3, 4, 0.9)
	if !g.IsConnected() {
		t.Fatal("connected graph reported disconnected")
	}
}

func TestHopDistancesLine(t *testing.T) {
	g := Line(5, 1)
	d := g.HopDistances(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	if g.Eccentricity(0) != 4 || g.Eccentricity(2) != 2 {
		t.Fatalf("eccentricities wrong: %d, %d", g.Eccentricity(0), g.Eccentricity(2))
	}
	if g.Diameter() != 4 {
		t.Fatalf("Diameter = %d", g.Diameter())
	}
}

func TestHopDistancesUnreachable(t *testing.T) {
	g := New(3)
	g.AddLink(0, 1, 0.9)
	d := g.HopDistances(0)
	if d[2] != -1 {
		t.Fatalf("unreachable node distance = %d, want -1", d[2])
	}
}

func TestGridStructure(t *testing.T) {
	g := Grid(3, 4, 1)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// 3 rows × 3 horizontal + 2 rows-gaps × 4 vertical = 9 + 8 = 17
	if g.NumLinks() != 17 {
		t.Fatalf("grid links = %d, want 17", g.NumLinks())
	}
	if g.Diameter() != 5 { // (3-1)+(4-1)
		t.Fatalf("grid diameter = %d, want 5", g.Diameter())
	}
	if g.Degree(0) != 2 || g.Degree(5) != 4 {
		t.Fatalf("corner/center degrees = %d/%d", g.Degree(0), g.Degree(5))
	}
}

func TestStarAndComplete(t *testing.T) {
	s := Star(6, 0.8)
	if s.Degree(0) != 5 || s.Degree(3) != 1 {
		t.Fatal("bad star degrees")
	}
	if s.Diameter() != 2 {
		t.Fatalf("star diameter = %d", s.Diameter())
	}
	k := Complete(5, 1)
	if k.NumLinks() != 10 {
		t.Fatalf("K5 links = %d", k.NumLinks())
	}
	if k.Diameter() != 1 {
		t.Fatalf("K5 diameter = %d", k.Diameter())
	}
}

func TestMeanLinkPRR(t *testing.T) {
	g := New(3)
	if g.MeanLinkPRR() != 0 {
		t.Fatal("empty graph mean PRR should be 0")
	}
	g.AddLink(0, 1, 0.4)
	g.AddLink(1, 2, 0.8)
	if got := g.MeanLinkPRR(); got < 0.6-1e-12 || got > 0.6+1e-12 {
		t.Fatalf("MeanLinkPRR = %v", got)
	}
}

func TestAnalyzeOnGrid(t *testing.T) {
	g := Grid(4, 4, 0.75)
	s := g.Analyze()
	if s.Nodes != 16 || s.Links != 24 || !s.Connected || s.Isolated != 0 {
		t.Fatalf("bad stats: %+v", s)
	}
	if s.MeanDegree != 3.0 { // 2*24/16
		t.Fatalf("MeanDegree = %v", s.MeanDegree)
	}
	if s.PRR.Mean != 0.75 {
		t.Fatalf("PRR mean = %v", s.PRR.Mean)
	}
	if s.Diameter != 6 || s.SourceEcc != 6 {
		t.Fatalf("diameter/ecc = %d/%d", s.Diameter, s.SourceEcc)
	}
	if s.Transitional != 1.0 { // all PRR 0.75 in [0.1, 0.9)
		t.Fatalf("Transitional = %v", s.Transitional)
	}
}

// Property: after any sequence of AddLink operations on random pairs, the
// graph validates and PRR is symmetric.
func TestQuickAddLinkSymmetry(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		r := rngutil.New(seed)
		n := 2 + r.Intn(20)
		g := New(n)
		ops := int(opsRaw)
		for i := 0; i < ops; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			prr := 0.01 + 0.99*r.Float64()
			g.AddLink(u, v, prr)
			if g.PRR(u, v) != g.PRR(v, u) {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: components partition the node set.
func TestQuickComponentsPartition(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.New(seed)
		n := 2 + r.Intn(30)
		g := New(n)
		for i := 0; i < n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddLink(u, v, 0.5)
			}
		}
		seen := make([]bool, n)
		total := 0
		for _, comp := range g.Components() {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
