// Package tree builds the routing substrates the flooding protocols need:
// the energy-optimal (minimum expected-transmission-count) tree that
// Opportunistic Flooding forwards along, and the per-node delay-distribution estimates OF uses for its probabilistic
// forwarding decisions.
package tree

import (
	"container/heap"
	"fmt"
	"math"

	"ldcflood/internal/topology"
)

// Tree is a rooted spanning tree over a topology graph.
type Tree struct {
	Root int
	// Parent[v] is v's parent, or -1 for the root (and for nodes
	// unreachable from the root).
	Parent []int
	// Cost[v] is the accumulated path metric from the root to v
	// (+Inf if unreachable).
	Cost []float64
	// Depth[v] is the hop depth in the tree (-1 if unreachable).
	Depth []int
	// Children[v] lists v's tree children in ascending order.
	Children [][]int
}

// linkETX returns the expected number of transmissions to cross a link with
// the given PRR: 1/PRR (the standard ETX metric with symmetric ACKs folded
// into PRR, matching the paper's k-class abstraction k = 1/quality).
func linkETX(prr float64) float64 {
	return 1 / prr
}

// EnergyOptimal builds the minimum-ETX tree rooted at root by Dijkstra over
// per-link expected transmission counts — the "optimal energy tree" of the
// Opportunistic Flooding design. It panics for an out-of-range root.
func EnergyOptimal(g *topology.Graph, root int) *Tree {
	n := g.N()
	if root < 0 || root >= n {
		panic(fmt.Sprintf("tree: root %d out of range [0,%d)", root, n))
	}
	t := &Tree{
		Root:     root,
		Parent:   make([]int, n),
		Cost:     make([]float64, n),
		Depth:    make([]int, n),
		Children: make([][]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
		t.Cost[i] = math.Inf(1)
		t.Depth[i] = -1
	}
	t.Cost[root] = 0
	t.Depth[root] = 0
	pq := &nodeHeap{{node: root, cost: 0}}
	visited := make([]bool, n)
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeItem)
		u := item.node
		if visited[u] {
			continue
		}
		visited[u] = true
		for _, l := range g.Neighbors(u) {
			w := linkETX(l.PRR)
			if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
				continue
			}
			c := t.Cost[u] + w
			if c < t.Cost[l.To] {
				t.Cost[l.To] = c
				t.Parent[l.To] = u
				t.Depth[l.To] = t.Depth[u] + 1
				heap.Push(pq, nodeItem{node: l.To, cost: c})
			}
		}
	}
	for v, p := range t.Parent {
		if p >= 0 {
			t.Children[p] = append(t.Children[p], v)
		}
	}
	return t
}

// Validate checks structural invariants: parents are linked neighbors in g,
// depths are consistent, no cycles. Returns the first problem found.
func (t *Tree) Validate(g *topology.Graph) error {
	if len(t.Parent) != g.N() {
		return fmt.Errorf("tree: %d parents for %d nodes", len(t.Parent), g.N())
	}
	for v, p := range t.Parent {
		if v == t.Root {
			if p != -1 {
				return fmt.Errorf("tree: root %d has parent %d", v, p)
			}
			continue
		}
		if p == -1 {
			if t.Depth[v] != -1 {
				return fmt.Errorf("tree: orphan %d has depth %d", v, t.Depth[v])
			}
			continue
		}
		if !g.HasLink(v, p) {
			return fmt.Errorf("tree: parent edge %d-%d not in graph", v, p)
		}
		if t.Depth[v] != t.Depth[p]+1 {
			return fmt.Errorf("tree: depth of %d is %d but parent %d has %d", v, t.Depth[v], p, t.Depth[p])
		}
	}
	// Cycle check: walking up from any node must reach the root within n
	// steps.
	for v := range t.Parent {
		if t.Depth[v] == -1 {
			continue
		}
		u, steps := v, 0
		for u != t.Root {
			u = t.Parent[u]
			steps++
			if u == -1 || steps > len(t.Parent) {
				return fmt.Errorf("tree: node %d does not reach root", v)
			}
		}
	}
	return nil
}

// ExpectedDelay estimates, for every node, the expected one-packet delivery
// delay (in slots) from the root along the tree in a low-duty-cycle network
// with period T: each hop costs an expected sleep latency of (T-1)/2 plus
// retransmissions at 1/PRR wake-ups each, i.e. hopDelay = ETX × T/2 + 1.
// Opportunistic Flooding uses these estimates as its delay distribution.
// Unreachable nodes get +Inf.
func (t *Tree) ExpectedDelay(g *topology.Graph, period int) []float64 {
	if period < 1 {
		panic("tree: period must be >= 1")
	}
	out := make([]float64, len(t.Parent))
	for v := range out {
		if t.Depth[v] == -1 {
			out[v] = math.Inf(1)
			continue
		}
		// Cost already accumulates ETX along the path.
		out[v] = t.Cost[v]*float64(period)/2 + float64(t.Depth[v])
	}
	return out
}

// nodeItem / nodeHeap implement container/heap for Dijkstra.
type nodeItem struct {
	node int
	cost float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
