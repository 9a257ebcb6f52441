package flood

import (
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// Flash reconstructs the flash-flooding idea of the paper's reference [17]
// (Lu & Whitehouse, INFOCOM'09): instead of arbitrating a single sender,
// every neighbor holding a packet the waking receiver needs transmits
// concurrently, and the receiver relies on the capture effect to decode
// the strongest signal. Run it with sim.Config.CaptureProb > 0 — with
// capture disabled the concurrent transmissions simply collide and Flash
// degenerates into the worst possible protocol, which is itself the
// instructive ablation.
type Flash struct {
	assigned []bool
	csr      *topology.CSR
	sel      selScratch
}

// NewFlash returns a fresh Flash instance.
func NewFlash() *Flash { return &Flash{} }

// Name implements sim.Protocol.
func (f *Flash) Name() string { return "Flash" }

// Reset implements sim.Protocol.
func (f *Flash) Reset(w *sim.World) {
	f.assigned = make([]bool, w.Graph.N())
	f.csr = w.Graph.CSR()
}

// CollisionsApply implements sim.Protocol: concurrent transmissions
// collide; the engine's capture model decides whether one survives.
func (f *Flash) CollisionsApply() bool { return true }

// Overhears implements sim.Protocol: concurrent flooding thrives on
// promiscuous reception.
func (f *Flash) Overhears() bool { return true }

// Intents implements sim.Protocol through the planner (sim.PlanIntents).
func (f *Flash) Intents(w *sim.World) []sim.Intent { return sim.PlanIntents(w, f) }
