package sim

// Intent planning. A protocol's per-receiver candidate scan is the
// dominant cost of a slot: per awake receiver it scans a neighbor row,
// probes packet bitsets, and draws contention randomness. ShardPlanner
// splits that work the same way the engine splits its delivery draws: a
// per-receiver candidate scan using (slot, node)-keyed streams, followed
// by a selection pass for the cross-receiver contention state (a sender
// serves one receiver per slot). Through PlanIntents a planner's results
// are identical whether the engine sees the planner interface or only the
// plain Protocol it embeds.
//
// Contract for PlanReceiver: it must only read the World and protocol
// state and append to the provided buffer — no protocol-owned scratch, no
// ProtoRNG. All randomness must come from slot-keyed derivations of the
// provided stream (by convention SubValue2(node, tag) /
// SubValue2(receiver, sender)), so a receiver's candidates are a pure
// function of (seed, slot, pre-slot world state), whichever receivers
// were planned before it. SelectIntents may use protocol scratch freely.

import (
	"cmp"
	"fmt"
	"slices"

	"ldcflood/internal/rngutil"
)

// PacketFCFS marks a planned candidate (or emitted intent) whose concrete
// packet is the sender's oldest packet the receiver still needs. The
// engine resolves it with an OldestNeeded scan after selection, for the
// selected transmissions only, so planners admit candidates with the
// AnyNeeded word test. A selection pass whose decision
// depends on the packet may resolve it itself — OF does so for the
// opportunistic candidates its bound cannot rule out — and emit the
// concrete packet. Only DFlood, whose per-packet timers pick the packet,
// resolves packets at plan time.
const PacketFCFS = -1

// protoStreamKey keys the slot's protocol-planning stream under the slot
// stream. Engine decision phases key receivers at node*2 and overhearers
// at node*2+1; this constant must stay clear of both — and, because
// Stream.SubValue's effective keyspace is 63 bits, distinct from every
// node key modulo 2^63. 2^62 satisfies both for any n < 2^61.
const protoStreamKey = 1 << 62

// Candidate is one prospective sender produced by PlanReceiver: the
// neighbor Node would send Packet (or PacketFCFS) with link quality PRR.
// U carries the candidate's pre-drawn uniform variate and Flags any
// protocol-private bits (a deferred marker, a tree-parent marker), so the
// serial selection pass needs no randomness and no graph access.
type Candidate struct {
	Node   int32
	Packet int32
	Flags  uint8
	PRR    float64
	U      float64
}

// ShardPlanner is the optional Protocol extension that splits the intent
// decision into a per-receiver candidate scan and a cross-receiver
// selection. See the file comment for the exact split and the contract. A planner whose
// per-receiver decision is cheaper than materialising its candidates —
// internal/flood's OPT and DBAO, which stop at the first free sender of a
// rank-ordered row — may plan nothing and decide in SelectIntents over
// World.AwakeList, drawing the same keyed values from World.ProtoStream.
type ShardPlanner interface {
	Protocol

	// PlanReceiver appends awake receiver r's candidate senders to buf and
	// returns it. Read-only except buf, which may already hold other
	// receivers' candidates.
	PlanReceiver(w *World, r int, slot *rngutil.Stream, buf []Candidate) []Candidate

	// SelectIntents runs the cross-receiver selection over the
	// slot's plan, emitting each chosen transmission with its stashed link
	// PRR. Receivers appear in ascending node order, candidates in the
	// order PlanReceiver produced them. Emissions must be grouped by
	// receiver in that same ascending order — finish one receiver's
	// intents before emitting the next's (iterating the plan in order and
	// emitting inside the loop satisfies this); the engine's admission
	// stage relies on it and rejects out-of-order emission.
	SelectIntents(w *World, plan *SlotPlan, emit func(in Intent, prr float64))
}

// SlotPlan is one slot's planned candidates: the receivers that admitted
// at least one candidate, ascending, with their candidate lists, stored
// back to back in cands (receiver i's run from off[i] to off[i+1]).
type SlotPlan struct {
	recvs []int32
	off   []int32
	cands []Candidate
}

// Len returns the number of receivers with candidates.
func (p *SlotPlan) Len() int { return len(p.recvs) }

// Receiver returns the i-th receiver's node id.
func (p *SlotPlan) Receiver(i int) int { return int(p.recvs[i]) }

// Candidates returns the i-th receiver's candidate list.
func (p *SlotPlan) Candidates(i int) []Candidate { return p.cands[p.off[i]:p.off[i+1]] }

// slotPlanner is the plan/select machinery shared by the engine's phase B
// and PlanIntents: the slot's plan, the selected transmissions, and the
// emit callback bound once on first use so the hot loop allocates
// nothing.
type slotPlanner struct {
	plan    SlotPlan
	planned []groupedTx
	// cands tallies planned candidates for telemetry.
	cands  int64
	emitFn func(in Intent, prr float64)
}

// run plans and selects one slot for p: every awake receiver's candidates
// appended to one arena, then the selection, then the FCFS packet
// resolution. The selected transmissions, with their stashed link PRRs,
// are left in sp.planned in emission order.
func (sp *slotPlanner) run(w *World, p ShardPlanner) {
	if sp.emitFn == nil {
		sp.emitFn = sp.emit
	}
	plan := &sp.plan
	plan.recvs, plan.off, plan.cands = plan.recvs[:0], append(plan.off[:0], 0), plan.cands[:0]
	for _, r := range w.awakeList {
		plan.cands = p.PlanReceiver(w, r, &w.protoSlot, plan.cands)
		if end := int32(len(plan.cands)); end > plan.off[len(plan.off)-1] {
			plan.recvs = append(plan.recvs, int32(r))
			plan.off = append(plan.off, end)
		}
	}
	sp.cands += int64(len(plan.cands))

	sp.planned = sp.planned[:0]
	p.SelectIntents(w, plan, sp.emitFn)

	// The world is frozen between planning and the merge, so OldestNeeded
	// here equals an at-emission scan.
	for i := range sp.planned {
		if in := &sp.planned[i].in; in.Packet == PacketFCFS {
			in.Packet = w.OldestNeeded(in.From, in.To)
		}
	}
}

// emit stages one selected transmission, with its stashed link PRR.
func (sp *slotPlanner) emit(in Intent, prr float64) {
	sp.planned = append(sp.planned, groupedTx{in: in, prr: prr})
}

// PlanIntents runs p's PlanReceiver and SelectIntents over this slot's
// awake receivers, on the slot's keyed protocol stream, and returns the
// selected intents in emission order with PacketFCFS resolved. Every
// planner in internal/flood implements Protocol.Intents with it, so a
// decorator that embeds the Protocol interface — hiding the planner
// methods from the engine, which then admits the protocol's Intents like
// any plain protocol's — reaches exactly the decisions the engine's own
// planning phase would, and the decorated run is byte-identical. Call it
// only from Intents; the returned slice is reused by the next call.
func PlanIntents(w *World, p ShardPlanner) []Intent {
	if w.inline == nil {
		w.inline = &inlinePlanner{}
	}
	ip := w.inline
	ip.sp.run(w, p)
	out := ip.out[:0]
	for _, g := range ip.sp.planned {
		out = append(out, g.in)
	}
	ip.out = out
	return out
}

// plainPlanner adapts a plain Protocol to ShardPlanner, giving the engine
// one admission path: it plans no candidates, and its selection asks the
// protocol for this slot's Intents and emits them grouped by ascending
// receiver — a stable sort, so each receiver's intents keep the protocol's
// order — with an unknown PRR for admission to look up. Admission draws
// syncRNG and applies the one-transmission-per-sender rule in that order.
// A planner hidden behind a decorator emits in ascending receiver order
// already (PlanIntents), so the sort keeps its order and its run is
// byte-identical to the undecorated one.
type plainPlanner struct {
	Protocol
	intents []Intent
}

// PlanReceiver implements ShardPlanner: a plain protocol plans nothing.
func (*plainPlanner) PlanReceiver(_ *World, _ int, _ *rngutil.Stream, buf []Candidate) []Candidate {
	return buf
}

// SelectIntents implements ShardPlanner.
func (p *plainPlanner) SelectIntents(w *World, _ *SlotPlan, emit func(in Intent, prr float64)) {
	p.intents = append(p.intents[:0], p.Protocol.Intents(w)...)
	slices.SortStableFunc(p.intents, func(a, b Intent) int { return cmp.Compare(a.To, b.To) })
	for _, in := range p.intents {
		emit(in, -1)
	}
}

// inlinePlanner is PlanIntents' per-run state, owned by the World.
type inlinePlanner struct {
	sp  slotPlanner
	out []Intent
}

// planIntents is phase B: the protocol's OnPlanSlot hook, plan and
// select, then the admission (validation,
// one-tx-per-sender, syncRNG draws, receiver grouping). The hook runs
// here, not in slotPlanner.run, so it runs once per slot whether the
// engine plans through the protocol's planner methods or a decorator
// hides them and its Intents plans through PlanIntents.
func (e *engine) planIntents(t int64) error {
	if e.w.planHook != nil {
		e.w.planHook(e.w)
	}
	e.sp.run(e.w, e.planner)

	// Admission into the flat receiver-group arena. SelectIntents emits
	// receiver groups contiguously in ascending receiver order (see the
	// ShardPlanner contract), so survivors append sequentially and each
	// new receiver opens a group — no per-receiver bucket lookups and no
	// sort.
	e.rxList = e.rxList[:0]
	e.rxFlat = e.rxFlat[:0]
	e.rxOff = e.rxOff[:0]
	lastTo := -1
	for _, g := range e.sp.planned {
		in := g.in
		prr, ok, err := e.vetIntent(in, g.prr, t)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if in.To != lastTo {
			if in.To < lastTo {
				return fmt.Errorf("sim: planner %s emitted receiver %d after %d — SelectIntents must emit receiver groups in ascending order",
					e.cfg.Protocol.Name(), in.To, lastTo)
			}
			e.rxList = append(e.rxList, in.To)
			e.rxOff = append(e.rxOff, int32(len(e.rxFlat)))
			lastTo = in.To
		}
		e.rxFlat = append(e.rxFlat, groupedTx{in: in, prr: prr})
	}
	e.rxOff = append(e.rxOff, int32(len(e.rxFlat)))
	return nil
}
