package flood

import (
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// Naive is the traditional flat flooding baseline: every node that holds a
// packet a waking neighbor needs contends to unicast it. Contention is
// resolved with id-based ranks rotated per slot (nodes have no link-quality
// knowledge), carrier sense over the physical audibility graph, and the
// same hidden-terminal behaviour as DBAO — but no overhearing and no
// structure. It exhibits the poor low-duty-cycle performance that motivates
// the paper (Section I).
type Naive struct {
	// HiddenFireProb mirrors DBAO's hidden-candidate behaviour.
	HiddenFireProb float64

	assigned []bool
	audible  audibility
	csr      *topology.CSR
	sel      selScratch
}

// NewNaive returns a fresh Naive instance.
func NewNaive() *Naive { return &Naive{} }

// Name implements sim.Protocol.
func (n *Naive) Name() string { return "Naive" }

// Reset implements sim.Protocol.
func (n *Naive) Reset(w *sim.World) {
	n.assigned = make([]bool, w.Graph.N())
	if n.HiddenFireProb <= 0 {
		n.HiddenFireProb = 0.5
	}
	n.audible = newAudibility(w.Graph, defaultCSRangeFactor)
	n.csr = w.Graph.CSR()
}

// CollisionsApply implements sim.Protocol.
func (n *Naive) CollisionsApply() bool { return true }

// Overhears implements sim.Protocol.
func (n *Naive) Overhears() bool { return false }

// Intents implements sim.Protocol through the planner (sim.PlanIntents).
func (n *Naive) Intents(w *sim.World) []sim.Intent { return sim.PlanIntents(w, n) }
