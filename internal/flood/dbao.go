package flood

import (
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// DBAO reconstructs the Deterministic Back-off Assignment + Overhearing
// protocol (Li & Li, WASA'11) the paper uses to approximate OPT in
// practice. When a receiver wakes, every neighbor holding a packet it needs
// is a candidate sender. Candidates are ranked deterministically by link
// quality (the back-off assignment); the best-ranked candidate transmits
// first, and every candidate that can sense it defers.
//
// Carrier sensing uses the physical carrier-sense range, which exceeds the
// communication range (CSRangeFactor × the longest usable link); with node
// positions available the audibility graph is distance-based, otherwise it
// falls back to the communication graph. Candidates hidden from the winner
// cannot sense the ongoing transmission and fire with probability
// HiddenFireProb — sub-slot backoff jitter means a hidden candidate
// sometimes starts late enough to miss the receiver — and simultaneous
// transmissions collide at the receiver. This hidden-terminal residue is
// exactly the DBAO-to-OPT gap the paper measures. Overhearing lets silent
// awake neighbors of a successful sender pick the packet up for free.
//
// Audibility is fixed for a run, so which of a receiver's lower-ranked
// neighbors are hidden from a given winner is too: DBAO memoizes that list
// per rank entry, builds it the first time the entry wins, and drops every
// list at Reset.
type DBAO struct {
	// CSRangeFactor scales the carrier-sense range relative to the longest
	// link distance in the topology. The default 1.2 reproduces the
	// OPT-to-DBAO delay gap the paper measures (~1.6x at 5% duty); larger
	// factors suppress hidden terminals entirely and DBAO converges to OPT.
	CSRangeFactor float64
	// HiddenFireProb is the per-slot probability that a hidden candidate
	// transmits over the winner (default 0.5).
	HiddenFireProb float64
	// DisableOverhearing turns the overhearing mechanism off (ablation).
	DisableOverhearing bool

	assigned []bool
	audible  audibility // carrier-sense relation
	rank     *topology.RankView
	offsets  []int32 // rank row starts, shared with the CSR
	out      []sim.Intent

	// hidden memoizes, per rank entry k = CSR.Offsets[r] + wi, the indices
	// j > wi of r's rank row whose node cannot hear row[wi]: the
	// candidates hidden from that winner. hidden[k] is 0 while unbuilt,
	// else the position in hiddenIdx of the list's first index;
	// hiddenIdx[hidden[k]-1] holds its length. Positions fit int32 until
	// the arena itself reaches 8 GiB.
	hidden    []int32
	hiddenIdx []int32
}

// NewDBAO returns a fresh DBAO instance with default parameters.
func NewDBAO() *DBAO { return &DBAO{} }

// Name implements sim.Protocol.
func (d *DBAO) Name() string { return "DBAO" }

// Reset implements sim.Protocol.
func (d *DBAO) Reset(w *sim.World) {
	d.assigned = make([]bool, w.Graph.N())
	if d.CSRangeFactor <= 0 {
		d.CSRangeFactor = defaultCSRangeFactor
	}
	if d.HiddenFireProb <= 0 {
		d.HiddenFireProb = 0.5
	}
	csr := w.Graph.CSR()
	d.audible = newAudibility(w.Graph, d.CSRangeFactor)
	d.rank = csr.Ranked()
	d.offsets = csr.Offsets
	d.hidden = make([]int32, len(csr.Targets))
	d.hiddenIdx = d.hiddenIdx[:0]
}

// CollisionsApply implements sim.Protocol: hidden terminals collide.
func (d *DBAO) CollisionsApply() bool { return true }

// Overhears implements sim.Protocol.
func (d *DBAO) Overhears() bool { return !d.DisableOverhearing }

// Intents implements sim.Protocol: per awake receiver in ascending order,
// the deterministic back-off winner is the first entry of its rank row
// that is unassigned, holds a needed packet and does not defer. Every
// entry ranked above the winner is then either no candidate or already
// assigned, so only the rest of the row can hold hidden candidates: an
// unassigned needed holder that cannot hear the winner fires when its
// keyed uniform falls below HiddenFireProb and it does not defer, in rank
// order. Only the winner's memoized hidden list is walked (hiddenOf), and
// the cheap tests run before the two keyed draws.
func (d *DBAO) Intents(w *sim.World) []sim.Intent {
	slot := w.ProtoStream()
	out := d.out[:0]
	for _, r := range w.AwakeList() {
		if !w.NeedsAnything(r) {
			continue
		}
		row, prrs := d.rank.Row(r)
		wi := firstFree(w, d.assigned, row, r, &slot)
		if wi < 0 {
			continue
		}
		winner := int(row[wi])
		d.assigned[winner] = true
		out = append(out, sim.Intent{From: winner, To: r, Packet: sim.PacketFCFS, PRR: prrs[wi]})
		for _, j := range d.hiddenOf(r, wi, row) {
			s := int(row[j])
			if d.assigned[s] || !w.AnyNeeded(s, r) ||
				pairU(&slot, r, s) >= d.HiddenFireProb || deferKeyed(w, s, &slot) {
				continue
			}
			d.assigned[s] = true
			out = append(out, sim.Intent{From: s, To: r, Packet: sim.PacketFCFS, PRR: prrs[j]})
		}
	}
	release(d.assigned, out)
	d.out = out
	return out
}

// hiddenOf returns the hidden list of entry wi of r's rank row, building
// it on first use in one ascending pass over the rest of the row.
func (d *DBAO) hiddenOf(r, wi int, row []int32) []int32 {
	k := int(d.offsets[r]) + wi
	if d.hidden[k] == 0 {
		at := len(d.hiddenIdx)
		d.hiddenIdx = append(d.hiddenIdx, 0)
		winner := int(row[wi])
		for j := wi + 1; j < len(row); j++ {
			if !d.audible.has(int(row[j]), winner) {
				d.hiddenIdx = append(d.hiddenIdx, int32(j))
			}
		}
		d.hiddenIdx[at] = int32(len(d.hiddenIdx) - at - 1)
		d.hidden[k] = int32(at + 1)
	}
	at := int(d.hidden[k])
	return d.hiddenIdx[at : at+int(d.hiddenIdx[at-1])]
}
