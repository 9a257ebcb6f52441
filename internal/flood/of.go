package flood

import (
	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tree"
)

// OF reconstructs Opportunistic Flooding (Guo et al., MobiCom'09): packets
// primarily travel down the energy-optimal tree (minimum expected
// transmission count), and senders additionally make probabilistic
// opportunistic forwarding decisions over non-tree links based on the
// expected delay distribution along the tree — a sender forwards over an
// opportunistic link when the packet appears to be running ahead of (or the
// tree path is lagging behind) its expected tree arrival. Opportunistic
// senders do not coordinate with the tree parent, so simultaneous
// transmissions collide; this, plus waiting on tree parents, is why OF
// trails DBAO and OPT in the paper's evaluation.
type OF struct {
	// Aggressiveness scales the opportunistic forwarding probability;
	// the default 0.25 reflects OF's conservative p-threshold decisions.
	Aggressiveness float64
	// DisableOpportunistic restricts OF to pure tree forwarding (ablation).
	DisableOpportunistic bool

	tr       *tree.Tree
	expDelay []float64
	// parentPRR[v] is the PRR of v's link to its tree parent (0 at the
	// root).
	parentPRR []float64
	assigned  []bool
	csr       *topology.CSR
	out       []sim.Intent
	// cands holds one receiver's free opportunistic candidates, as
	// indices into its row, and us the keyed uniforms of those that
	// survive drawFilter.
	cands []int32
	us    []float64

	// treeGraph / treePeriod memoize the energy-optimal tree, its parent
	// link PRRs and its expected-delay distribution across runs over the
	// same (immutable) topology and schedule period.
	treeGraph  *topology.Graph
	treePeriod int
}

// NewOF returns a fresh OF instance with default parameters.
func NewOF() *OF { return &OF{Aggressiveness: 0.25} }

// Name implements sim.Protocol.
func (o *OF) Name() string { return "OF" }

// Reset implements sim.Protocol: builds the energy-optimal tree and the
// per-node expected-delay distribution used by forwarding decisions.
func (o *OF) Reset(w *sim.World) {
	period := w.Schedules[0].Period()
	for _, s := range w.Schedules {
		if s.Period() > period {
			period = s.Period()
		}
	}
	o.csr = w.Graph.CSR()
	if o.treeGraph != w.Graph || o.treePeriod != period {
		o.tr = tree.EnergyOptimal(w.Graph, 0)
		o.expDelay = o.tr.ExpectedDelay(w.Graph, period)
		o.parentPRR = make([]float64, w.Graph.N())
		for v, p := range o.tr.Parent {
			if p >= 0 {
				o.parentPRR[v] = o.csr.PRROf(v, p)
			}
		}
		o.treeGraph, o.treePeriod = w.Graph, period
	}
	o.assigned = make([]bool, w.Graph.N())
	if o.Aggressiveness <= 0 {
		o.Aggressiveness = 0.25
	}
}

// CollisionsApply implements sim.Protocol.
func (o *OF) CollisionsApply() bool { return true }

// Overhears implements sim.Protocol: OF coordinates through the tree, not
// through overhearing.
func (o *OF) Overhears() bool { return false }

// Intents implements sim.Protocol: per awake receiver in ascending order,
// the tree parent serves its child when free, holding a needed packet and
// not deferring; opportunistic senders (the other free neighbors holding
// a needed packet) then decide independently and cannot know whether the
// parent is about to transmit, so collisions with it are possible. Each
// fires on its keyed uniform against forwardProbability, normalized by the
// count of free opportunistic candidates (part of OF's p-value
// computation), so the expected number of opportunistic transmissions per
// wake-up stays O(Aggressiveness) rather than O(degree). A candidate's
// packet — whose age feeds forwardProbability — is resolved only when its
// uniform falls below maxForwardProbability; above that bound no packet
// age can fire it. The parent's packet is left to the engine (FCFS).
func (o *OF) Intents(w *sim.World) []sim.Intent {
	slot := w.ProtoStream()
	out := o.out[:0]
	for _, r := range w.AwakeList() {
		if !w.NeedsAnything(r) {
			continue
		}
		parent := o.tr.Parent[r]
		parentServes := parent >= 0 && !o.assigned[parent] && w.AnyNeeded(parent, r) && !deferKeyed(w, parent, &slot)
		if parentServes {
			o.assigned[parent] = true
			out = append(out, sim.Intent{From: parent, To: r, Packet: sim.PacketFCFS, PRR: o.parentPRR[r]})
		}
		if o.DisableOpportunistic {
			continue
		}
		row, prrs := o.csr.Row(r)
		// The parent is busy for the scan: it is never an opportunistic
		// candidate of its own child.
		if parent >= 0 {
			held := o.assigned[parent]
			o.assigned[parent] = true
			o.cands = w.FreeHolders(o.cands, r, row, o.assigned)
			o.assigned[parent] = held
		} else {
			o.cands = w.FreeHolders(o.cands, r, row, o.assigned)
		}
		n := len(o.cands)
		live, us := o.drawFilter(slot.PairRow(uint64(r)), row, prrs, o.cands)
		for j, i := range live {
			s, prr := int(row[i]), prrs[i]
			if deferKeyed(w, s, &slot) {
				continue
			}
			pkt := w.OldestNeeded(s, r)
			if q := o.forwardProbability(w, r, pkt, prr, parentServes, n); q > 0 && us[j] < q {
				o.assigned[s] = true
				out = append(out, sim.Intent{From: s, To: r, Packet: pkt, PRR: prr})
			}
		}
	}
	release(o.assigned, out)
	o.out = out
	return out
}

// drawFilter draws the keyed uniform of each of a receiver's free
// candidates (indices into its row) from the receiver's pair row and
// keeps, in order, those whose uniform falls below maxForwardProbability:
// above it no packet age can fire the candidate. It compacts cands in
// place, without a branch on the comparison, and returns the survivors
// with their uniforms.
func (o *OF) drawFilter(pr rngutil.PairRow, row []int32, prrs []float64, cands []int32) ([]int32, []float64) {
	n := len(cands)
	if cap(o.us) < n {
		o.us = make([]float64, n)
	}
	us := o.us[:n]
	k := 0
	for _, i := range cands {
		u := pr.Float64(uint64(row[i]))
		cands[k], us[k] = i, u
		keep := 0
		if u < o.maxForwardProbability(prrs[i], n) {
			keep = 1
		}
		k += keep
	}
	return cands[:k], us[:k]
}

// forwardProbability is the opportunistic forwarding decision: compare the
// packet's age against its expected tree-path arrival at the receiver. A
// packet already overdue (the tree path is slow or lossy) is forwarded
// aggressively; one well ahead of schedule is forwarded rarely, and only
// over good links. The density divisor keeps the expected opportunistic
// transmission count per wake-up constant.
func (o *OF) forwardProbability(w *sim.World, receiver, pkt int, prr float64, parentServes bool, oppCands int) float64 {
	age := float64(w.Now() - w.InjectSlot(pkt))
	expected := o.expDelay[receiver]
	q := o.Aggressiveness * prr / float64(oppCands)
	if age > expected {
		// Overdue: the tree is failing this receiver; seize the slot.
		q *= 2
	}
	if parentServes {
		// The parent holds the packet and is awake-adjacent; most of the
		// time the tree will deliver, so stand down proportionally.
		q *= 0.25
	}
	if q > 1 {
		q = 1
	}
	return q
}

// maxForwardProbability bounds forwardProbability over every packet age
// and parent state: the overdue doubling without the parent stand-down,
// evaluated in the same operation order. Rounding is monotone and the
// stand-down only shrinks q, so forwardProbability(...) <= this bound
// holds exactly in floating point, and a candidate whose stashed uniform
// is at or above it cannot fire whichever packet it would send.
func (o *OF) maxForwardProbability(prr float64, oppCands int) float64 {
	q := o.Aggressiveness * prr / float64(oppCands) * 2
	if q > 1 {
		q = 1
	}
	return q
}
