package sim

// Intent planning. A protocol's per-receiver candidate scan is the
// dominant cost of a slot: per awake receiver it scans a neighbor row,
// probes packet bitsets, and draws contention randomness. ShardPlanner
// splits that work the same way the engine splits its delivery draws: a
// per-receiver candidate scan using (slot, node)-keyed streams, which the
// worker pool can run in parallel, followed by a cheap serial selection
// pass for the cross-receiver contention state (a sender serves one
// receiver per slot). A planner's results are identical across every
// worker count, and — through PlanIntents — identical whether the engine
// sees the planner interface or only the plain Protocol it embeds.
//
// Concurrency contract for PlanReceiver: it runs on pool workers, so it
// must only read the World and protocol state and append to the provided
// buffer — no protocol-owned scratch, no ProtoRNG. All randomness must
// come from slot-keyed derivations of the provided stream (by convention
// SubValue2(node, tag) / SubValue2(receiver, sender)), so a receiver's
// candidates are a pure function of (seed, slot, pre-slot world state).
// SelectIntents runs serially and may use protocol scratch freely.

import (
	"cmp"
	"fmt"
	"slices"

	"ldcflood/internal/rngutil"
)

// PacketFCFS marks a planned candidate (or emitted intent) whose concrete
// packet is the sender's oldest packet the receiver still needs. The
// engine resolves it with a parallel OldestNeeded pass after selection,
// keeping the bitset scans off the serial spine, so planners admit
// candidates with the AnyNeeded word test. A selection pass whose decision
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

// ShardPlanner is the optional Protocol extension that moves the
// per-receiver intent scan onto the worker pool. See the file comment for
// the exact split and the concurrency contract. A planner whose
// per-receiver decision is cheaper than materialising its candidates —
// internal/flood's OPT and DBAO, which stop at the first free sender of a
// rank-ordered row — may plan nothing and decide in SelectIntents over
// World.AwakeList, drawing the same keyed values from World.ProtoStream.
type ShardPlanner interface {
	Protocol

	// PlanReceiver appends awake receiver r's candidate senders to buf and
	// returns it. Runs concurrently across receivers; read-only except buf.
	PlanReceiver(w *World, r int, slot *rngutil.Stream, buf []Candidate) []Candidate

	// SelectIntents runs the serial cross-receiver selection over the
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
// at least one candidate, ascending, with their candidate lists.
type SlotPlan struct {
	recvs []int32
	cands [][]Candidate
}

// Len returns the number of receivers with candidates.
func (p *SlotPlan) Len() int { return len(p.recvs) }

// Receiver returns the i-th receiver's node id.
func (p *SlotPlan) Receiver(i int) int { return int(p.recvs[i]) }

// Candidates returns the i-th receiver's candidate list.
func (p *SlotPlan) Candidates(i int) []Candidate { return p.cands[i] }

// planArena is one worker's candidate storage, padded so neighboring
// workers' slice-header updates never share a cache line. store backs the
// published rxPlan slices and is reset (not freed) every slot; scratch is
// the PlanReceiver append buffer. A store realloc mid-slot leaves earlier
// published slices on the old backing — stale capacity, valid data — and
// the arena reaches a stable high-water size within a few slots.
type planArena struct {
	store   []Candidate
	scratch []Candidate
	_       [16]byte
}

// idxChunk is one plan-phase chunk's list of awake-list indices that
// produced at least one candidate, padded against false sharing. The
// serial compaction walks these lists in chunk order — O(planned
// receivers) — instead of rescanning the whole awake bucket.
type idxChunk struct {
	idx []int32
	_   [40]byte
}

// slotPlanner is the plan/select machinery shared by the engine's phase B
// and PlanIntents: per-worker candidate arenas, the per-awake-index plan
// slices, the compacted SlotPlan, the selected transmissions, and the
// callbacks bound once on first use so the hot loop allocates nothing.
// w and p are the slot being planned, for the chunk callbacks.
type slotPlanner struct {
	pool    *shardPool
	arenas  []planArena
	rxPlan  [][]Candidate
	idx     []idxChunk
	plan    SlotPlan
	planned []groupedTx
	// cands tallies planned candidates for telemetry.
	cands int64

	w              *World
	p              ShardPlanner
	emitFn         func(in Intent, prr float64)
	planFn, fcfsFn func(worker, chunk, lo, hi int)
}

func newSlotPlanner(pool *shardPool) slotPlanner {
	return slotPlanner{pool: pool, arenas: make([]planArena, pool.workers)}
}

// run plans and selects one slot for p: parallel per-receiver candidate
// planning into per-worker arenas, serial compaction and selection, then a
// parallel FCFS packet-resolution pass. The selected transmissions, with
// their stashed link PRRs, are left in sp.planned in emission order.
func (sp *slotPlanner) run(w *World, p ShardPlanner) {
	if sp.emitFn == nil {
		sp.emitFn, sp.planFn, sp.fcfsFn = sp.emit, sp.planChunk, sp.fcfsChunk
	}
	sp.w, sp.p = w, p
	list := w.awakeList
	if cap(sp.rxPlan) < len(list) {
		sp.rxPlan = make([][]Candidate, len(list))
	}
	sp.rxPlan = sp.rxPlan[:len(list)]
	for i := range sp.arenas {
		sp.arenas[i].store = sp.arenas[i].store[:0]
	}
	_, nchunks := sp.pool.plan(len(list), planMinChunk)
	for len(sp.idx) < nchunks {
		sp.idx = append(sp.idx, idxChunk{})
	}
	planIdx := sp.idx[:nchunks]
	sp.pool.runShards(len(list), planMinChunk, sp.planFn)

	// Serial compaction: receivers with candidates, ascending — chunk
	// index lists in chunk order enumerate exactly the awake-list indices
	// that planned something, so this walk is O(planned receivers), not
	// O(awake). Entries of rxPlan outside those lists are stale garbage
	// from earlier slots and are never read.
	sp.plan.recvs = sp.plan.recvs[:0]
	sp.plan.cands = sp.plan.cands[:0]
	for ci := range planIdx {
		for _, k := range planIdx[ci].idx {
			c := sp.rxPlan[k]
			sp.plan.recvs = append(sp.plan.recvs, int32(list[k]))
			sp.plan.cands = append(sp.plan.cands, c)
			sp.cands += int64(len(c))
		}
	}

	sp.planned = sp.planned[:0]
	p.SelectIntents(w, &sp.plan, sp.emitFn)

	// Resolve FCFS sentinels in parallel: the world is frozen between
	// planning and the merge, so OldestNeeded here equals an at-emission
	// scan.
	sp.pool.runShards(len(sp.planned), fcfsMinChunk, sp.fcfsFn)
}

// emit stages one selected transmission, with its stashed link PRR.
func (sp *slotPlanner) emit(in Intent, prr float64) {
	sp.planned = append(sp.planned, groupedTx{in: in, prr: prr})
}

// planChunk plans the awake receivers list[lo:hi] into worker's arena and
// records, in chunk c's index list, which of them planned a candidate.
func (sp *slotPlanner) planChunk(worker, c, lo, hi int) {
	w, list := sp.w, sp.w.awakeList
	a := &sp.arenas[worker]
	ic := sp.idx[c].idx[:0]
	for k := lo; k < hi; k++ {
		cands := sp.p.PlanReceiver(w, list[k], &w.protoSlot, a.scratch[:0])
		a.scratch = cands
		if len(cands) == 0 {
			continue
		}
		start := len(a.store)
		a.store = append(a.store, cands...)
		sp.rxPlan[k] = a.store[start:len(a.store):len(a.store)]
		ic = append(ic, int32(k))
	}
	sp.idx[c].idx = ic
}

// fcfsChunk resolves the PacketFCFS sentinels of planned[lo:hi].
func (sp *slotPlanner) fcfsChunk(_, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		if in := &sp.planned[i].in; in.Packet == PacketFCFS {
			in.Packet = sp.w.OldestNeeded(in.From, in.To)
		}
	}
}

// PlanIntents runs p's PlanReceiver and SelectIntents inline over this
// slot's awake receivers, on the slot's keyed protocol stream, and returns
// the selected intents in emission order with PacketFCFS resolved. Every
// planner in internal/flood implements Protocol.Intents with it, so a
// decorator that embeds the Protocol interface — hiding the planner
// methods from the engine, which then admits the protocol's Intents like
// any plain protocol's — reaches exactly the decisions the engine's own
// planning phase would, and the decorated run is byte-identical. Call it
// only from Intents; the returned slice is reused by the next call.
func PlanIntents(w *World, p ShardPlanner) []Intent {
	if w.inline == nil {
		// A one-worker pool runs every batch inline and starts no
		// goroutine, so it needs no close.
		w.inline = &inlinePlanner{sp: newSlotPlanner(newShardPool(1))}
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

// planIntents is phase B: the protocol's OnPlanSlot hook, plan and select
// on the engine's pool, then the serial admission (validation,
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
