package flood

// sim.ShardPlanner implementations for every protocol in the package —
// each protocol's one decision implementation. The per-receiver candidate
// scan (PlanReceiver) draws from (slot, node)-keyed sub-streams, so every
// receiver's candidates are a pure function of (seed, slot, pre-slot world
// state) regardless of scan order. The cheap cross-receiver contention
// state (a sender serves one receiver per slot; OF's density divisor)
// stays in the SelectIntents pass. OPT and DBAO plan nothing: their
// decision is a walk down each awake receiver's rank row
// (topology.CSR.Ranked) that stops at the first free sender, so
// SelectIntents makes it, drawing the same keyed values from
// World.ProtoStream. Each protocol's Intents runs the same pair inline
// through sim.PlanIntents, so a decorator that hides the planner methods
// from the engine floods byte-identically.
//
// Keying scheme (all under the slot's protocol stream, which the engine
// derives at sim's protoStreamKey — disjoint from the engine's own node
// keys):
//
//   - defer-to-reception: SubValue2(sender, deferTag). One decision per
//     sender per slot, shared by every receiver that sees the sender as a
//     candidate.
//   - per-pair fire draws (DBAO/Naive hidden terminals, OF opportunistic
//     forwarding): SubValue2(receiver, sender).Float64(), stashed in
//     Candidate.U. Receiver != sender on every link and deferTag exceeds
//     any node id, so the two key families never collide.
//
// Stored uniforms are compared as U < p, so the degenerate probabilities
// are exact: p <= 0 never fires and p >= 1 always fires (U < 1 by
// construction) — the deterministic subspace the hand-derived tests in
// oracle_test.go pin.
//
// PlanReceiver bodies are read-only: they read the World, the CSR and
// immutable protocol config, and append only to the engine-provided
// buffer. All mutable protocol scratch (assigned, selScratch) is touched
// only in SelectIntents. Every draw is keyed by (slot, node), so a draw
// skipped by an earlier test — OPT's and DBAO's walks stop early — moves
// no other.

import (
	"fmt"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// deferProb is the defer-to-reception probability shared by every protocol
// (see deferKeyed). A package variable so tests can zero it and land in the
// protocols' deterministic subspace.
var deferProb = 0.25

// deferTag keys the per-sender defer decision under the slot's protocol
// stream. It must exceed every node id so SubValue2(sender, deferTag)
// never collides with a SubValue2(receiver, sender) pair draw.
const deferTag uint64 = 1 << 62

// Candidate flag bits (Candidate.Flags).
const (
	// candDeferred marks a candidate whose sender drew defer-to-reception
	// this slot; selection treats it as silent.
	candDeferred uint8 = 1 << 0
	// candParent marks OF's tree-parent candidate, which PlanReceiver
	// always places first so selection can handle it before the
	// opportunistic density count.
	candParent uint8 = 1 << 1
	// candSuppressed marks a Trickle candidate whose firing the
	// redundancy rule suppresses this slot. Selection never emits it — it
	// is planned only so the serial selection pass can tally the
	// suppression (PlanReceiver itself must stay mutation-free). DFlood
	// counts its suppressions on its fire calendar and plans no blocked
	// pairs.
	candSuppressed uint8 = 1 << 2
)

// deferKeyed reports whether a prospective sender stays silent this slot
// to keep its own reception opportunity open. A node that is awake and
// still missing packets cannot receive while it transmits (semi-duplex);
// if two such nodes deterministically elect each other as senders every
// period they starve forever. Every protocol therefore lets an awake,
// needy sender abstain with probability deferProb, which breaks
// mutual-transmission cycles within a few periods at negligible delay
// cost. The draw is keyed by (slot, sender).
func deferKeyed(w *sim.World, sender int, slot *rngutil.Stream) bool {
	if !w.IsAwake(sender) || !w.NeedsAnything(sender) {
		return false
	}
	if deferProb <= 0 {
		return false
	}
	return slot.PairFloat64(uint64(sender), deferTag) < deferProb
}

// pairU is the keyed uniform for a (receiver, sender) contention decision.
func pairU(slot *rngutil.Stream, r, s int) float64 {
	return slot.PairFloat64(uint64(r), uint64(s))
}

// selScratch is the per-protocol SelectIntents scratch: the senders
// assigned this slot (for a sparse reset of assigned, proportional to the
// slot's transmissions) and a candidate filter buffer.
type selScratch struct {
	emitted []int32
	cands   []sim.Candidate
}

// planHolders appends every neighbor of r in csr holding a packet r needs
// and not deferring, in row order, with the FCFS sentinel.
func planHolders(w *sim.World, csr *topology.CSR, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	if !w.NeedsAnything(r) {
		return buf
	}
	row, prrs := csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if w.AnyNeeded(s, r) && !deferKeyed(w, s, slot) {
			buf = append(buf, sim.Candidate{Node: s32, Packet: sim.PacketFCFS, PRR: prrs[i]})
		}
	}
	return buf
}

// planContenders is planHolders with each candidate's keyed hidden-fire
// uniform stashed in U: Naive's carrier-sense plan.
func planContenders(w *sim.World, csr *topology.CSR, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	start := len(buf)
	buf = planHolders(w, csr, r, slot, buf)
	for i := start; i < len(buf); i++ {
		buf[i].U = pairU(slot, r, int(buf[i].Node))
	}
	return buf
}

// ---- OPT ----

// firstFree returns the index in r's rank row of the first neighbor that
// is unassigned this slot, holds a packet r needs and does not defer: the
// best-ranked free holder (highest PRR, lowest node id among ties). It
// returns -1 when there is none. The cheap tests run before the keyed
// defer draw; every draw is keyed by (slot, node), so a skipped draw
// moves no other.
func firstFree(w *sim.World, assigned []bool, row []int32, r int, slot *rngutil.Stream) int {
	for i, s32 := range row {
		s := int(s32)
		if !assigned[s] && w.AnyNeeded(s, r) && !deferKeyed(w, s, slot) {
			return i
		}
	}
	return -1
}

// PlanReceiver implements sim.ShardPlanner: OPT plans nothing. Its whole
// decision is a short walk down a rank row, made in SelectIntents.
func (o *OPT) PlanReceiver(_ *sim.World, _ int, _ *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	return buf
}

// SelectIntents implements sim.ShardPlanner: per awake receiver in
// ascending order, the first entry of its rank row that is unassigned,
// holds a needed packet and does not defer transmits. A sender serves one
// receiver per slot (semi-duplex); a contended receiver falls back to its
// next-best holder.
func (o *OPT) SelectIntents(w *sim.World, _ *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	slot := w.ProtoStream()
	sel := o.sel.emitted[:0]
	for _, r := range w.AwakeList() {
		if !w.NeedsAnything(r) {
			continue
		}
		row, prrs := o.rank.Row(r)
		wi := firstFree(w, o.assigned, row, r, &slot)
		if wi < 0 {
			continue
		}
		s := row[wi]
		o.assigned[s] = true
		sel = append(sel, s)
		emit(sim.Intent{From: int(s), To: r, Packet: sim.PacketFCFS}, prrs[wi])
	}
	for _, s := range sel {
		o.assigned[s] = false
	}
	o.sel.emitted = sel
}

// ---- DBAO ----

// PlanReceiver implements sim.ShardPlanner: DBAO plans nothing. Its
// back-off is a walk down a rank row, made in SelectIntents.
func (d *DBAO) PlanReceiver(_ *sim.World, _ int, _ *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	return buf
}

// SelectIntents implements sim.ShardPlanner: per awake receiver in
// ascending order, the deterministic back-off winner is the first entry
// of its rank row that is unassigned, holds a needed packet and does not
// defer. Every entry ranked above the winner is then either no candidate
// or already assigned, so only the rest of the row can hold hidden
// candidates: an unassigned needed holder that cannot hear the winner
// fires when its keyed uniform falls below HiddenFireProb and it does not
// defer, emitted in rank order. The cheap tests run before the two keyed
// draws.
func (d *DBAO) SelectIntents(w *sim.World, _ *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	slot := w.ProtoStream()
	sel := d.sel.emitted[:0]
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
		sel = append(sel, row[wi])
		emit(sim.Intent{From: winner, To: r, Packet: sim.PacketFCFS}, prrs[wi])
		for j := wi + 1; j < len(row); j++ {
			s := int(row[j])
			if d.assigned[s] || !w.AnyNeeded(s, r) || d.audible.has(s, winner) ||
				pairU(&slot, r, s) >= d.HiddenFireProb || deferKeyed(w, s, &slot) {
				continue
			}
			d.assigned[s] = true
			sel = append(sel, row[j])
			emit(sim.Intent{From: s, To: r, Packet: sim.PacketFCFS}, prrs[j])
		}
	}
	for _, s := range sel {
		d.assigned[s] = false
	}
	d.sel.emitted = sel
}

// ---- Naive ----

// PlanReceiver implements sim.ShardPlanner: every needed holder that did
// not defer, in row order, with its keyed hidden-fire uniform.
func (n *Naive) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	return planContenders(w, n.csr, r, slot, buf)
}

// SelectIntents implements sim.ShardPlanner: among the unassigned
// candidates in ascending id order (rows are ascending), the rank origin
// rotates by slot — no quality knowledge, just a deterministic TDMA-ish
// rotation every node can compute — to pick the winner; candidates hidden
// from it (carrier sense) fire on their stashed uniforms.
func (n *Naive) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	sel := n.sel.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		cands := n.sel.cands[:0]
		for _, c := range plan.Candidates(i) {
			if !n.assigned[c.Node] {
				cands = append(cands, c)
			}
		}
		n.sel.cands = cands
		if len(cands) == 0 {
			continue
		}
		rot := int(w.Now()) % len(cands)
		winner := cands[rot]
		n.assigned[winner.Node] = true
		sel = append(sel, winner.Node)
		emit(sim.Intent{From: int(winner.Node), To: r, Packet: sim.PacketFCFS}, winner.PRR)
		for j, c := range cands {
			if j == rot || n.audible.has(int(c.Node), int(winner.Node)) {
				continue
			}
			if c.U < n.HiddenFireProb {
				n.assigned[c.Node] = true
				sel = append(sel, c.Node)
				emit(sim.Intent{From: int(c.Node), To: r, Packet: sim.PacketFCFS}, c.PRR)
			}
		}
	}
	for _, s := range sel {
		n.assigned[s] = false
	}
	n.sel.emitted = sel
}

// ---- OF ----

// PlanReceiver implements sim.ShardPlanner. The tree parent's candidate
// (flagged candParent) is always first; opportunistic candidates follow in
// row order. Admission is the AnyNeeded word test and every candidate
// carries the FCFS sentinel: the parent's packet is resolved by the
// engine's post-selection pass, an opportunistic candidate's by
// SelectIntents, and only where its delay comparison can fire it.
func (o *OF) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	if !w.NeedsAnything(r) {
		return buf
	}
	parent := o.tr.Parent[r]
	if parent >= 0 && w.AnyNeeded(parent, r) {
		flags := candParent
		if deferKeyed(w, parent, slot) {
			flags |= candDeferred
		}
		buf = append(buf, sim.Candidate{
			Node: int32(parent), Packet: sim.PacketFCFS, Flags: flags,
			PRR: o.parentPRR[r],
		})
	}
	if o.DisableOpportunistic {
		return buf
	}
	row, prrs := o.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if s == parent || !w.AnyNeeded(s, r) {
			continue
		}
		var flags uint8
		if deferKeyed(w, s, slot) {
			flags |= candDeferred
		}
		buf = append(buf, sim.Candidate{
			Node: s32, Packet: sim.PacketFCFS, Flags: flags,
			PRR: prrs[i], U: pairU(slot, r, s),
		})
	}
	return buf
}

// SelectIntents implements sim.ShardPlanner: the tree parent transmits if
// free and not deferring; opportunistic candidates then fire independently
// on their stashed uniforms against forwardProbability, whose density
// divisor counts the still-unassigned opportunistic candidates. A
// candidate's packet — whose age feeds forwardProbability — is resolved
// only when its uniform falls below maxForwardProbability; above that
// bound no packet age can fire it.
func (o *OF) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	sel := o.sel.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		cands := plan.Candidates(i)
		parentServes := false
		if len(cands) > 0 && cands[0].Flags&candParent != 0 {
			pc := cands[0]
			cands = cands[1:]
			if !o.assigned[pc.Node] && pc.Flags&candDeferred == 0 {
				o.assigned[pc.Node] = true
				sel = append(sel, pc.Node)
				emit(sim.Intent{From: int(pc.Node), To: r, Packet: sim.PacketFCFS}, pc.PRR)
				parentServes = true
			}
		}
		if len(cands) == 0 {
			continue
		}
		oppCands := 0
		for j := range cands {
			if !o.assigned[cands[j].Node] {
				oppCands++
			}
		}
		if oppCands == 0 {
			continue
		}
		for j := range cands {
			c := &cands[j]
			if o.assigned[c.Node] || c.Flags&candDeferred != 0 || c.U >= o.maxForwardProbability(c.PRR, oppCands) {
				continue
			}
			pkt := w.OldestNeeded(int(c.Node), r)
			q := o.forwardProbability(w, r, pkt, c.PRR, parentServes, oppCands)
			if q > 0 && c.U < q {
				o.assigned[c.Node] = true
				sel = append(sel, c.Node)
				emit(sim.Intent{From: int(c.Node), To: r, Packet: pkt}, c.PRR)
			}
		}
	}
	for _, s := range sel {
		o.assigned[s] = false
	}
	o.sel.emitted = sel
}

// ---- Trickle ----

// PlanReceiver implements sim.ShardPlanner: every neighbor holding a
// packet r needs whose Trickle timer is armed this slot (fire point
// passed within the current interval), in row order.
// Suppressed firings are planned with candSuppressed so the serial
// selection pass can tally them; timer state is pure (keyed stream
// captured at Reset), so the scan reads nothing mutable. A receiver none
// of whose neighbours holds a packet it lacks returns at once, read off
// the neighbour-holder count: the row scan would admit no candidate and
// draw nothing.
func (t *Trickle) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	if !w.NeighborHoldsNeeded(r) {
		return buf
	}
	now := w.Now()
	row, prrs := t.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if !w.AnyNeeded(s, r) {
			continue
		}
		start, length := t.intervalAt(lastResetOf(w, s), now)
		if t.firePoint(s, start, length) > now {
			continue
		}
		var flags uint8
		if t.suppressedAt(w, s, start) {
			flags = candSuppressed
		} else if deferKeyed(w, s, slot) {
			flags = candDeferred
		}
		buf = append(buf, sim.Candidate{Node: s32, Packet: sim.PacketFCFS, Flags: flags, PRR: prrs[i]})
	}
	return buf
}

// SelectIntents implements sim.ShardPlanner: the first unassigned,
// unsuppressed, undeferred firing candidate in row order serves each
// receiver, while suppressed candidates are tallied once per sender per
// slot.
func (t *Trickle) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	sel := t.sel.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		chosen := false
		for _, c := range plan.Candidates(i) {
			if c.Flags&candSuppressed != 0 {
				t.supp.note(c.Node)
				continue
			}
			if chosen || c.Flags&candDeferred != 0 || t.assigned[c.Node] {
				continue
			}
			t.assigned[c.Node] = true
			chosen = true
			sel = append(sel, c.Node)
			t.supp.message()
			emit(sim.Intent{From: int(c.Node), To: r, Packet: sim.PacketFCFS}, c.PRR)
		}
	}
	for _, s := range sel {
		t.assigned[s] = false
	}
	t.sel.emitted = sel
	t.supp.endSlot()
}

// ---- DFlood ----

// PlanReceiver implements sim.ShardPlanner: every neighbor with a ready
// timer for a packet r lacks, with its chosen packet and penalized
// forwarding slot (stashed in U — exact below 2^53), in row order. A
// receiver with no ready neighbor plans nothing. The calendar state it
// reads changes only in the serial prepareSlot and SelectIntents steps,
// and the neighbour-holder counts only in the engine's serial delivery
// phases.
func (d *DFlood) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	if d.readyNbr[r] == 0 || !w.NeedsAnything(r) {
		return buf
	}
	row, prrs := d.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if d.readyPkts[s] == 0 {
			continue
		}
		pkt, req := d.pairChoice(w, s, r)
		if pkt < 0 {
			continue
		}
		var flags uint8
		if deferKeyed(w, s, slot) {
			flags = candDeferred
		}
		buf = append(buf, sim.Candidate{Node: s32, Packet: int32(pkt), Flags: flags, PRR: prrs[i], U: float64(req)})
	}
	return buf
}

// SelectIntents implements sim.ShardPlanner: per receiver, the
// unassigned, undeferred candidate with the smallest penalized forwarding
// slot (ties to the first in row order) transmits, its attempt counter
// advances, its cached delay is redrawn for the new attempt and its timer
// goes back on the calendar. It panics when the slot's calendar was not
// prepared: a decorator that hides Reset from the protocol would
// otherwise plan from a stale ready set without any error.
func (d *DFlood) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	if d.prepared != w.Now() {
		panic(fmt.Sprintf("flood: DFlood selecting slot %d, but its calendar was last prepared at slot %d: the World.OnPlanSlot hook registered at Reset did not run", w.Now(), d.prepared))
	}
	sel := d.sel.emitted[:0]
	for i := 0; i < plan.Len(); i++ {
		r := plan.Receiver(i)
		cands := plan.Candidates(i)
		wi := -1
		for j := range cands {
			c := &cands[j]
			if c.Flags&candDeferred != 0 || d.assigned[c.Node] {
				continue
			}
			if wi < 0 || c.U < cands[wi].U {
				wi = j
			}
		}
		if wi < 0 {
			continue
		}
		c := cands[wi]
		d.assigned[c.Node] = true
		i := int(c.Node)*d.m + int(c.Packet)
		d.attempts[i]++
		d.wait[i] = d.delay(i, d.attempts[i])
		d.arm(w, i)
		sel = append(sel, c.Node)
		d.supp.message()
		emit(sim.Intent{From: int(c.Node), To: r, Packet: int(c.Packet)}, c.PRR)
	}
	for _, s := range sel {
		d.assigned[s] = false
	}
	d.sel.emitted = sel
}

// Compile-time interface checks: every protocol plans.
var (
	_ sim.ShardPlanner = (*OPT)(nil)
	_ sim.ShardPlanner = (*DBAO)(nil)
	_ sim.ShardPlanner = (*Naive)(nil)
	_ sim.ShardPlanner = (*OF)(nil)
	_ sim.ShardPlanner = (*Trickle)(nil)
	_ sim.ShardPlanner = (*DFlood)(nil)
)
