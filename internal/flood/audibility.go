package flood

import (
	"slices"

	"ldcflood/internal/topology"
)

// audibilityDenseLimit is the node count at which the carrier-sense
// audibility structure switches from the dense O(n²)-bit matrix to sparse
// per-node sorted neighbor lists built with a spatial hash. The dense form
// answers has() in one word operation and is right for paper-scale
// topologies; at 100k nodes it would cost ~1.25 GB, while the sparse form
// is O(n + audible edges). A variable so equivalence tests can force the
// sparse structure on small graphs.
var audibilityDenseLimit = 4096

// audibility answers "can u hear v's transmission" for the carrier-sense
// protocols (DBAO, Naive). Exactly one of bits/rows is populated.
type audibility struct {
	bits [][]uint64 // dense bitset matrix (small graphs)
	rows [][]int32  // sparse sorted audible-neighbor lists (large graphs)
}

// has reports whether u can hear v. Membership is identical between the two
// representations; only the lookup cost differs (O(1) vs O(log degree)).
func (a *audibility) has(u, v int) bool {
	if a.bits != nil {
		return topology.BitsetHas(a.bits[u], v)
	}
	_, ok := slices.BinarySearch(a.rows[u], int32(v))
	return ok
}

// carrierSenseRange is the physical carrier-sense radius: csFactor times
// the longest usable link distance in the topology, read off the shared
// CSR rows (each undirected link once, from its lower endpoint) without
// materializing an edge list.
func carrierSenseRange(g *topology.Graph, csFactor float64) float64 {
	c := g.CSR()
	maxLink := 0.0
	for u := 0; u < c.N(); u++ {
		row, _ := c.Row(u)
		for _, v := range row {
			if int(v) > u {
				if d := g.Pos[u].Dist(g.Pos[v]); d > maxLink {
					maxLink = d
				}
			}
		}
	}
	return csFactor * maxLink
}

// audiblePair is the exact audibility predicate shared by the dense and
// sparse builders: squared distance against the threshold, with the
// correctly-rounded Dist comparison consulted only inside a narrow band
// around the threshold where dx²+dy² rounding could disagree.
func audiblePair(pu, pv topology.Point, lo, hi, csRange float64) bool {
	dx, dy := pu.X-pv.X, pu.Y-pv.Y
	d2 := dx*dx + dy*dy
	switch {
	case d2 <= lo:
		return true
	case d2 >= hi:
		return false
	default:
		return pu.Dist(pv) <= csRange
	}
}

// buildAudibility constructs the audibility structure for g: with positions,
// nodes within csFactor × (longest link distance) of each other; without
// positions, the communication adjacency itself. Dense below
// audibilityDenseLimit, sparse above — same membership either way.
func buildAudibility(g *topology.Graph, csFactor float64) *audibility {
	n := g.N()
	if n < audibilityDenseLimit {
		return &audibility{bits: carrierSenseBitset(g, csFactor)}
	}
	rows := make([][]int32, n)
	if g.Pos == nil {
		// No positions: audibility falls back to the communication graph.
		// CSR rows are shared read-only; sorted graphs (every generator
		// output) reuse them in place.
		c := g.CSR()
		for u := 0; u < n; u++ {
			row, _ := c.Row(u)
			if c.Sorted {
				rows[u] = row
			} else {
				cp := slices.Clone(row)
				slices.Sort(cp)
				rows[u] = cp
			}
		}
		return &audibility{rows: rows}
	}
	csRange := carrierSenseRange(g, csFactor)
	cs2 := csRange * csRange
	lo, hi := cs2*(1-1e-9), cs2*(1+1e-9)
	// Cell a hair above the radius so band-edge pairs (d within one part in
	// 1e9 of the threshold) still land inside the 3×3 neighborhood sweep.
	cell := csRange * (1 + 1e-6)
	if !(cell > 0) {
		cell = 1 // linkless graph: only coincident nodes can be audible
	}
	ni := topology.NewNearIndex(g.Pos, cell)
	for u := 0; u < n; u++ {
		pu := g.Pos[u]
		var row []int32
		ni.VisitNear(u, func(v int) {
			if audiblePair(pu, g.Pos[v], lo, hi, csRange) {
				row = append(row, int32(v))
			}
		})
		slices.Sort(row)
		rows[u] = row
	}
	return &audibility{rows: rows}
}
