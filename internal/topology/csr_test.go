package topology

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// csrMatchesAdj asserts the CSR view mirrors the slice adjacency exactly:
// same rows in the same order, same PRRs, and agreeing point lookups.
func csrMatchesAdj(t *testing.T, g *Graph) {
	t.Helper()
	c := g.CSR()
	if c.N() != g.N() {
		t.Fatalf("CSR has %d nodes, graph %d", c.N(), g.N())
	}
	for u := 0; u < g.N(); u++ {
		nbrs := g.Neighbors(u)
		ts, ps := c.Row(u)
		if len(ts) != len(nbrs) || c.Degree(u) != len(nbrs) {
			t.Fatalf("node %d: CSR row length %d, adjacency %d", u, len(ts), len(nbrs))
		}
		for i, l := range nbrs {
			if int(ts[i]) != l.To || ps[i] != l.PRR {
				t.Fatalf("node %d entry %d: CSR (%d,%v), adjacency (%d,%v)",
					u, i, ts[i], ps[i], l.To, l.PRR)
			}
			if got := c.PRROf(u, l.To); got != l.PRR {
				t.Fatalf("PRROf(%d,%d) = %v, want %v", u, l.To, got, l.PRR)
			}
			if !c.HasLink(u, l.To) {
				t.Fatalf("HasLink(%d,%d) = false for existing link", u, l.To)
			}
		}
	}
}

func TestCSRMatchesAdjacency(t *testing.T) {
	for _, g := range []*Graph{
		GreenOrbs(1),
		Grid(8, 9, 0.8),
		Star(40, 0.5),
		Line(17, 1),
		Complete(12, 0.33),
	} {
		csrMatchesAdj(t, g)
	}
}

func TestCSRAbsentLinks(t *testing.T) {
	g := Grid(5, 5, 0.9)
	c := g.CSR()
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if got, want := c.HasLink(u, v), g.HasLink(u, v); got != want {
				t.Fatalf("HasLink(%d,%d) = %v, want %v", u, v, got, want)
			}
			if got, want := c.PRROf(u, v), g.PRR(u, v); got != want {
				t.Fatalf("PRROf(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

// TestCSRUnsortedRows covers the linear-scan fallback for graphs whose
// adjacency was never sorted (links inserted in descending order).
func TestCSRUnsortedRows(t *testing.T) {
	g := New(6)
	g.AddLink(0, 5, 0.5)
	g.AddLink(0, 3, 0.6)
	g.AddLink(0, 1, 0.7)
	c := g.CSR()
	if c.Sorted {
		t.Fatal("descending insertion order reported as sorted")
	}
	csrMatchesAdj(t, g)
	if c.PRROf(0, 4) != 0 || c.HasLink(3, 5) {
		t.Fatal("unsorted lookup invented a link")
	}
}

// TestCSRCacheInvalidation pins the get-or-build contract: repeated calls
// share one instance, and every mutation drops the cache.
func TestCSRCacheInvalidation(t *testing.T) {
	g := Grid(4, 4, 0.8)
	a := g.CSR()
	if b := g.CSR(); a != b {
		t.Fatal("second CSR call rebuilt the view")
	}
	g.AddLink(0, 15, 0.4)
	b := g.CSR()
	if a == b {
		t.Fatal("AddLink did not invalidate the cached CSR")
	}
	if !b.HasLink(0, 15) {
		t.Fatal("rebuilt CSR misses the new link")
	}
	g.RemoveLink(0, 15)
	if c := g.CSR(); c == b || c.HasLink(0, 15) {
		t.Fatal("RemoveLink did not invalidate the cached CSR")
	}
	g.SortNeighbors()
	if d := g.CSR(); !d.Sorted {
		t.Fatal("CSR after SortNeighbors not marked sorted")
	}
	if c := g.Clone().CSR(); c == g.CSR() {
		t.Fatal("clone shares the original's CSR cache")
	}
}

// TestCSRDegenerate covers the fuzz-corpus extremes as deterministic
// cases: a single node, a linkless graph, and a 50k-node maximum-degree
// star, each round-tripped through the text and JSON codecs with the CSR
// rebuilt on the far side.
func TestCSRDegenerate(t *testing.T) {
	star := 50000
	if testing.Short() {
		star = 5000
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"single-node", New(1)},
		{"linkless", New(4)},
		{"max-degree-star", Star(star, 0.5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			csrMatchesAdj(t, tc.g)
			if tc.g.NumLinks() > 0 && tc.g.CSR().Degree(0) != tc.g.N()-1 {
				t.Fatalf("star hub degree %d, want %d", tc.g.CSR().Degree(0), tc.g.N()-1)
			}
			var sb strings.Builder
			if err := tc.g.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			back, err := ReadText(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatal(err)
			}
			csrMatchesAdj(t, back)
			if !reflect.DeepEqual(back.CSR(), tc.g.CSR()) {
				t.Fatal("text round trip changed the CSR view")
			}
		})
	}
}

// TestCSRRandomGraphs cross-checks point lookups against the slice path on
// random sorted graphs.
func TestCSRRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		g := New(n)
		for e := 0; e < 3*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddLink(u, v, 0.05+0.9*rng.Float64())
			}
		}
		g.SortNeighbors()
		csrMatchesAdj(t, g)
		for q := 0; q < 50; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if got, want := g.CSR().PRROf(u, v), g.PRR(u, v); got != want {
				t.Fatalf("trial %d: PRROf(%d,%d) = %v, want %v", trial, u, v, got, want)
			}
		}
	}
}

// rankMatchesCSR asserts every rank row is a permutation of the CSR row
// (same neighbors, same PRRs) ordered by PRR descending, id ascending.
func rankMatchesCSR(t *testing.T, c *CSR) {
	t.Helper()
	r := c.Ranked()
	for u := 0; u < c.N(); u++ {
		ts, ps := c.Row(u)
		rts, rps := r.Row(u)
		if len(rts) != len(ts) || len(rps) != len(ps) {
			t.Fatalf("node %d: rank row length %d, CSR row %d", u, len(rts), len(ts))
		}
		want := map[int32]float64{}
		for i, v := range ts {
			want[v] = ps[i]
		}
		for i, v := range rts {
			prr, ok := want[v]
			if !ok || prr != rps[i] {
				t.Fatalf("node %d: rank entry (%d, %v) not in the CSR row", u, v, rps[i])
			}
			delete(want, v)
			if i > 0 && (rps[i-1] < rps[i] || rps[i-1] == rps[i] && rts[i-1] >= v) {
				t.Fatalf("node %d: rank entries %d (%d, %v) and %d (%d, %v) out of order",
					u, i-1, rts[i-1], rps[i-1], i, v, rps[i])
			}
		}
		if len(want) != 0 {
			t.Fatalf("node %d: rank row misses %d CSR entries", u, len(want))
		}
	}
}

// TestRankViewOrder checks the rank rows on the fixed topologies, on
// random graphs whose PRRs take four values (ties everywhere) in sorted
// and unsorted adjacency order, and on the degenerate extremes.
func TestRankViewOrder(t *testing.T) {
	for _, g := range []*Graph{GreenOrbs(1), Grid(8, 9, 0.8), Star(40, 0.5), New(1), New(4)} {
		rankMatchesCSR(t, g.CSR())
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		g := New(n)
		for e := 0; e < 3*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddLink(u, v, float64(1+rng.Intn(4))/4)
			}
		}
		if trial%2 == 0 {
			g.SortNeighbors()
		}
		rankMatchesCSR(t, g.CSR())
	}
}

// TestRankViewCache pins the memoisation: repeated calls share one view,
// concurrent first calls (run under -race in CI) agree, and a graph
// mutation drops the view together with the CSR.
func TestRankViewCache(t *testing.T) {
	g := Grid(6, 6, 0.7)
	c := g.CSR()
	const callers = 8
	views := make(chan *RankView, callers)
	for i := 0; i < callers; i++ {
		go func() { views <- c.Ranked() }()
	}
	first := <-views
	for i := 1; i < callers; i++ {
		if v := <-views; v != first {
			t.Fatal("concurrent first calls built more than one rank view")
		}
	}
	if c.Ranked() != first {
		t.Fatal("second Ranked call rebuilt the view")
	}

	g.AddLink(0, 35, 1)
	added := g.CSR().Ranked()
	if added == first {
		t.Fatal("AddLink did not invalidate the rank view")
	}
	if row, _ := added.Row(0); row[0] != 35 {
		t.Fatalf("node 0's best-ranked neighbor is %d, want the new PRR-1 link to 35", row[0])
	}
	rankMatchesCSR(t, g.CSR())
	g.RemoveLink(0, 35)
	removed := g.CSR().Ranked()
	if removed == added {
		t.Fatal("RemoveLink did not invalidate the rank view")
	}
	if row, _ := removed.Row(0); slices.Contains(row, 35) {
		t.Fatal("rank view after RemoveLink still lists the removed link")
	}
	rankMatchesCSR(t, g.CSR())
}
