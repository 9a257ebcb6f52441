package flood

import (
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// OPT is the oracle flooding scheme of Section V-A: at every active slot
// each sensor receives a needed packet from the neighbor with the best link
// quality that holds one, and no collisions ever occur. Its delay is the
// globally optimal flooding performance the practical protocols are
// measured against.
type OPT struct {
	// DisableOverhearing restricts the oracle to pure unicast receptions.
	// Used by validation tests that compare the simulator against the
	// Galton-Watson doubling model, where each node receives via exactly
	// one unicast per slot.
	DisableOverhearing bool

	assigned []bool
	rank     *topology.RankView
	out      []sim.Intent
}

// NewOPT returns a fresh OPT instance.
func NewOPT() *OPT { return &OPT{} }

// Name implements sim.Protocol.
func (o *OPT) Name() string { return "OPT" }

// Reset implements sim.Protocol.
func (o *OPT) Reset(w *sim.World) {
	o.assigned = make([]bool, w.Graph.N())
	o.rank = w.Graph.CSR().Ranked()
}

// CollisionsApply implements sim.Protocol: the oracle never collides.
func (o *OPT) CollisionsApply() bool { return false }

// Overhears implements sim.Protocol: the oracle exploits every physically
// available reception, including free overheard packets — otherwise a
// practical protocol with overhearing (DBAO) could beat the "optimal"
// scheme, contradicting its definition.
func (o *OPT) Overhears() bool { return !o.DisableOverhearing }

// Intents implements sim.Protocol: per frontier receiver
// (sim.World.Frontier) in ascending order, the first entry of its rank row
// (topology.CSR.Ranked: PRR descending, id ascending) that is unassigned,
// holds a needed packet and does not defer transmits the FCFS packet. A
// sender serves one receiver per slot (semi-duplex); a contended receiver
// falls back to its next-best holder.
func (o *OPT) Intents(w *sim.World) []sim.Intent {
	slot := w.ProtoStream()
	out := o.out[:0]
	for _, r := range w.Frontier() {
		row, prrs := o.rank.Row(r)
		wi := firstFree(w, o.assigned, row, r, &slot)
		if wi < 0 {
			continue
		}
		o.assigned[row[wi]] = true
		out = append(out, sim.Intent{From: int(row[wi]), To: r, Packet: sim.PacketFCFS, PRR: prrs[wi]})
	}
	release(o.assigned, out)
	o.out = out
	return out
}
