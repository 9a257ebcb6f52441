package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// fuzzStarText renders a k-leaf star in the trace text format — the
// degenerate maximum-degree shape whose CSR row 0 holds every edge.
func fuzzStarText(k int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph star %d\n", k+1)
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&sb, "link 0 %d 0.5\n", i)
	}
	return sb.String()
}

// checkCSR cross-checks the accepted graph's CSR projection against the
// adjacency it was built from: shape, per-row degree, and symmetric PRR
// lookups must agree. Any graph the parsers accept must survive this build
// — including empty, single-node, and maximum-degree-star shapes.
func checkCSR(t *testing.T, g *Graph) {
	t.Helper()
	c := g.CSR()
	if c.N() != g.N() {
		t.Fatalf("CSR has %d nodes, graph has %d", c.N(), g.N())
	}
	edges := 0
	for u := 0; u < g.N(); u++ {
		if c.Degree(u) != g.Degree(u) {
			t.Fatalf("CSR degree(%d) = %d, graph %d", u, c.Degree(u), g.Degree(u))
		}
		edges += c.Degree(u)
		for _, l := range g.Neighbors(u) {
			if got := c.PRROf(u, l.To); got != l.PRR {
				t.Fatalf("CSR PRR(%d, %d) = %v, graph %v", u, l.To, got, l.PRR)
			}
		}
	}
	if edges != 2*g.NumLinks() {
		t.Fatalf("CSR carries %d directed edges, graph has %d links", edges, g.NumLinks())
	}
}

// FuzzReadText asserts the trace parser never panics, and that anything it
// accepts has finite positions, builds a consistent CSR projection and
// round-trips through WriteText to an equivalent graph.
func FuzzReadText(f *testing.F) {
	f.Add("graph g 3\nlink 0 1 0.5\nlink 1 2 0.9\n")
	f.Add("graph g 2\nnode 0 1.5 2.5\nnode 1 0 0\nlink 0 1 1\n")
	f.Add("# comment\n\ngraph x 1\n")
	f.Add("link 0 1 0.5")
	f.Add("graph g -1")
	f.Add("graph g 2\nlink 0 1 2.0\n")
	f.Add("graph g 2\nnode 9 0 0\n")
	f.Add("graph g 2\nnode 0 Inf 0\nnode 1 0 NaN\nlink 0 1 1\n")
	// Degenerate CSR shapes: empty graph, single node, linkless multi-node,
	// unsorted duplicate-free rows, and a maximum-degree star (the 50k-leaf
	// production shape is exercised in csr_test.go; the seed stays small so
	// mutation is cheap).
	f.Add("graph empty 0\n")
	f.Add("graph single 1\n")
	f.Add("graph linkless 5\n")
	f.Add("graph unsorted 4\nlink 2 3 0.5\nlink 0 3 0.25\nlink 0 1 1\n")
	f.Add(fuzzStarText(64))
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		for u, p := range g.Pos {
			if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				t.Fatalf("accepted node %d at non-finite position %v", u, p)
			}
		}
		checkCSR(t, g)
		var buf bytes.Buffer
		if err := g.WriteText(&buf); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\noriginal input: %q", err, input)
		}
		if back.N() != g.N() || back.NumLinks() != g.NumLinks() {
			t.Fatalf("round trip changed shape: %v vs %v", back, g)
		}
		checkCSR(t, back)
	})
}

// FuzzUnmarshalJSON asserts the JSON decoder never panics and that accepted
// graphs validate and survive a marshal/unmarshal cycle.
func FuzzUnmarshalJSON(f *testing.F) {
	f.Add(`{"nodes":3,"edges":[{"u":0,"v":1,"prr":0.5}]}`)
	f.Add(`{"nodes":2,"pos":[[0,0],[3,4]],"edges":[{"u":0,"v":1,"prr":1}]}`)
	f.Add(`{"nodes":0,"edges":[]}`)
	f.Add(`{"nodes":2,"edges":[{"u":0,"v":0,"prr":0.5}]}`)
	f.Add(`garbage`)
	// Degenerate CSR shapes mirroring the text-format corpus.
	f.Add(`{"nodes":1,"edges":[]}`)
	f.Add(`{"nodes":6}`)
	f.Add(`{"nodes":5,"edges":[{"u":0,"v":4,"prr":0.5},{"u":0,"v":1,"prr":0.5},{"u":0,"v":3,"prr":0.5},{"u":0,"v":2,"prr":0.5}]}`)
	f.Fuzz(func(t *testing.T, input string) {
		var g Graph
		if err := json.Unmarshal([]byte(input), &g); err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		checkCSR(t, &g)
		data, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("remarshal failed: %v", err)
		}
		var back Graph
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("round-trip failed: %v", err)
		}
		if back.N() != g.N() || back.NumLinks() != g.NumLinks() {
			t.Fatal("round trip changed shape")
		}
		checkCSR(t, &back)
	})
}
