package flood

import (
	"ldcflood/internal/topology"
)

// defaultCSRangeFactor is the carrier-sense range, in units of the longest
// link, that DBAO and Naive sense over unless configured otherwise.
const defaultCSRangeFactor = 1.2

// audibility answers "can u hear v's transmission" for the carrier-sense
// protocols (DBAO, Naive). With positions it is the distance predicate
// against the carrier-sense radius; without, the communication adjacency.
// Either answer is computed per query in O(1) (O(log degree) without
// positions), so nothing is materialized and building it costs one scan of
// the links for the radius.
type audibility struct {
	pos         []topology.Point // nil: fall back to csr
	lo, hi, rng float64          // audiblePair thresholds
	csr         *topology.CSR
}

// newAudibility returns the audibility relation of g at csFactor ×
// (longest link distance).
func newAudibility(g *topology.Graph, csFactor float64) audibility {
	a := audibility{pos: g.Pos, csr: g.CSR()}
	if g.Pos != nil {
		a.rng = carrierSenseRange(g, csFactor)
		cs2 := a.rng * a.rng
		a.lo, a.hi = cs2*(1-1e-9), cs2*(1+1e-9)
	}
	return a
}

// has reports whether u can hear v, for u != v. The relation is symmetric.
func (a *audibility) has(u, v int) bool {
	if a.pos == nil {
		return a.csr.HasLink(u, v)
	}
	return audiblePair(a.pos[u], a.pos[v], a.lo, a.hi, a.rng)
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

// audiblePair is the exact audibility predicate pu.Dist(pv) <= csRange:
// squared distance against the threshold, with the correctly-rounded Dist
// comparison consulted only inside a narrow band [lo, hi) around csRange²
// where dx²+dy² rounding could disagree.
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
