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
	out      []sim.Intent
	// cands holds one receiver's free contenders, as indices into its row.
	cands []int32
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

// Intents implements sim.Protocol: per awake receiver in ascending order,
// its contenders are the unassigned neighbors holding a needed packet that
// do not defer, in ascending id order (rows are ascending). The rank
// origin rotates by slot — no quality knowledge, just a deterministic
// TDMA-ish rotation every node can compute — to pick the winner;
// contenders hidden from it (carrier sense) fire on their keyed uniforms.
func (n *Naive) Intents(w *sim.World) []sim.Intent {
	slot := w.ProtoStream()
	out := n.out[:0]
	for _, r := range w.AwakeList() {
		if !w.NeedsAnything(r) {
			continue
		}
		row, prrs := n.csr.Row(r)
		cands := w.FreeHolders(n.cands, r, row, n.assigned)
		n.cands = cands
		k := 0
		for _, i := range cands {
			if !deferKeyed(w, int(row[i]), &slot) {
				cands[k] = i
				k++
			}
		}
		cands = cands[:k]
		if len(cands) == 0 {
			continue
		}
		rot := int(w.Now()) % len(cands)
		wi := cands[rot]
		winner := int(row[wi])
		n.assigned[winner] = true
		out = append(out, sim.Intent{From: winner, To: r, Packet: sim.PacketFCFS, PRR: prrs[wi]})
		for j, i := range cands {
			s := int(row[i])
			if j == rot || n.audible.has(s, winner) || pairU(&slot, r, s) >= n.HiddenFireProb {
				continue
			}
			n.assigned[s] = true
			out = append(out, sim.Intent{From: s, To: r, Packet: sim.PacketFCFS, PRR: prrs[i]})
		}
	}
	release(n.assigned, out)
	n.out = out
	return out
}
