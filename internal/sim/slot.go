package sim

// Keyed-stream slot resolution, the engine's one slot discipline. Every
// random decision of a slot comes from a stream keyed by (run seed, slot,
// node): each receiver (and each potential overhearer) derives a private
// stream and consumes only it, so a node's decisions are pure functions
// of pre-slot state, independent of the order in which nodes are
// decided. Every phase runs inline on the caller's goroutine, and world
// mutations are applied in ascending node order.
//
// A slot resolves in phases:
//
//	A  faults, injection, chain Sync, awake set and frontier — in the
//	   caller.
//	B  protocol intents: one Protocol.Intents call. The intents are
//	   stably sorted by receiver unless they already ascend (every
//	   protocol in internal/flood decides in one ascending pass over the
//	   frontier, so its intents do), then admitted in that order:
//	   PacketFCFS resolution, validation, one transmission per sender and
//	   the syncRNG draws, one sequential stream.
//	C  per-receiver delivery decisions, each made just before
//	D  its application, in ascending receiver order: the delivery, then
//	   one pass over the receiver's attempts for counters and Observer
//	   callbacks. A decision reads nothing an earlier receiver's delivery
//	   writes.
//	E  overhearing: scan the successful senders' neighbor rows, keep the
//	   awake nodes with none of slotFlags (silent, untargeted, not yet
//	   decided), flag each so a node adjacent to two successes is
//	   decided exactly once, and decide them into one hit list before any
//	   of them is delivered.
//	F  sort the hits into ascending node order — O(delivered·log
//	   delivered), not O(row entries scanned) — and deliver them, then
//	   coverage accounting and scratch cleanup. Coverage is accounted
//	   per delivery: every delivery of the slot (injection included)
//	   that brought a packet's holder count to 2 or to the coverage
//	   target listed the packet, and only the listed packets are
//	   latched, in ascending packet order.
//
// A run uses one core: on the 10k–100k-node grids of cmd/engbench -scale,
// splitting a slot's phases over worker goroutines cost more than it
// saved. Callers that want more cores run more simulations at once
// (internal/runner).

import (
	"cmp"
	"math"
	"slices"

	"ldcflood/internal/schedule"
)

// protoStreamKey keys the slot's protocol stream (World.ProtoStream) under
// the slot stream. Engine decision phases key receivers at node*2 and
// overhearers at node*2+1; this constant must stay clear of both — and,
// because Stream.SubValue's effective keyspace is 63 bits, distinct from
// every node key modulo 2^63. 2^62 satisfies both for any n < 2^61.
const protoStreamKey = 1 << 62

// rxRecord is one receiver's delivery decision over its intent group.
type rxRecord struct {
	// fail is the outcome of every attempt before deliverIdx: TxJammed,
	// TxBusy, TxCollision (concurrent frames all lost) or TxLoss.
	fail TxOutcome
	// deliverIdx indexes the delivered intent within the group, or -1
	// when nothing was decoded. Attempts after it are redundant.
	deliverIdx int32
}

// outcome returns the outcome of attempt j of the receiver's group.
func (rec rxRecord) outcome(j int) TxOutcome {
	switch d := int(rec.deliverIdx); {
	case d < 0 || j < d:
		return rec.fail
	case j == d:
		return TxSuccess
	default:
		return TxRedundant
	}
}

// ohHit is one overhearing delivery: node decoded the success at index
// succ. Hits are collected in row-scan order and sorted by node id before
// application, so deliveries land in ascending node order.
type ohHit struct {
	node int32
	succ int32
}

// awakePlan precomputes per-offset awake buckets over the schedule
// hyperperiod, so the slot loop recomputes the awake set in O(awake) per
// slot instead of an O(n) scan — at 100k nodes and 1% duty that is the
// difference between touching 100k and ~1k schedule entries per slot — and
// steps over offsets at which nobody is scheduled awake. It is a pure
// function of the static schedules and stays O(n + L·awake) in memory.
type awakePlan struct {
	L       int64
	buckets [][]int32
	// gap[o] is the distance from offset o to the next offset (cyclically,
	// o itself included) whose bucket is non-empty: 0 when someone is
	// awake at o.
	gap []int32
}

// maxHyperperiod bounds the schedule hyperperiod (lcm of all periods) for
// which the engine builds an awakePlan. Mutually irregular periods (e.g.
// coprime large ones) blow past it and the loop falls back to an O(n)
// schedule scan of every slot; the paper's uniform-period assignments have
// hyperperiod == period.
const maxHyperperiod = 8192

// newAwakePlan builds the offset buckets, or returns nil when the
// hyperperiod exceeds maxHyperperiod (the caller then scans).
func newAwakePlan(scheds []*schedule.Schedule) *awakePlan {
	L := 1
	for _, s := range scheds {
		L = lcm(L, s.Period())
		if L > maxHyperperiod {
			return nil
		}
	}
	plan := &awakePlan{L: int64(L), buckets: make([][]int32, L), gap: make([]int32, L)}
	counts := make([]int32, L)
	total := 0
	for _, s := range scheds {
		total += len(s.ActiveSlots()) * (L / s.Period())
		for _, off := range s.ActiveSlots() {
			for base := off; base < L; base += s.Period() {
				counts[base]++
			}
		}
	}
	backing := make([]int32, total)
	pos := 0
	for o := range plan.buckets {
		c := int(counts[o])
		if c == 0 {
			continue
		}
		plan.buckets[o] = backing[pos : pos : pos+c]
		pos += c
	}
	// Ascending node order per bucket, the order wake builds the awake set
	// and frontier in.
	for i, s := range scheds {
		for _, off := range s.ActiveSlots() {
			for base := off; base < L; base += s.Period() {
				plan.buckets[base] = append(plan.buckets[base], int32(i))
			}
		}
	}
	// Distances to the next non-empty bucket: two backward passes, the
	// first to seed the wrap-around from offset 0's side. Every schedule
	// has an active slot, so some bucket is non-empty whenever n > 0.
	next := int32(math.MaxInt32)
	for pass := 0; pass < 2; pass++ {
		for o := L - 1; o >= 0; o-- {
			if counts[o] > 0 {
				next = 0
			} else if next != math.MaxInt32 {
				next++
			}
			plan.gap[o] = next
		}
	}
	return plan
}

// skip returns the first slot at or after t that the loop must visit: one
// whose offset bucket is non-empty, or the next injection slot, capped at
// the horizon. Slots in between have nobody awake, so nothing can happen
// on them.
func (e *engine) skip(plan *awakePlan, t int64) int64 {
	d := plan.gap[t%plan.L]
	if d == 0 {
		return t
	}
	to := min(t+int64(d), e.maxSlots)
	if e.w.injected < e.cfg.M {
		to = min(to, int64(e.w.injected)*int64(e.interval))
	}
	return to
}

// resolveSlot resolves one slot; the caller must have set w.now and
// the awake set. See the comment at the top of this file for the phase
// structure. Scratch state touched during the slot is cleared before
// returning, so consecutive calls need no O(n) wipes.
func (e *engine) resolveSlot(t int64) error {
	w, res, cfg := e.w, e.res, &e.cfg

	// Phase A tail: advance every fault chain to t now, so the effPRR
	// queries below are pure reads.
	if e.inj != nil {
		e.inj.Sync(t)
	}
	// The slot's stream subtree root and its protocol stream.
	e.slotStream = e.slotRoot.SubValue(uint64(t))
	w.protoSlot = e.slotStream.SubValue(protoStreamKey)

	// Phase B.
	if err := e.admitIntents(t); err != nil {
		return err
	}
	e.statSlotRecv += int64(len(e.rxList))

	// Phases C + D: every targeted receiver decides its outcome from its
	// private (seed, slot, receiver) stream, and the outcomes are applied
	// in ascending receiver order, so counters, deliveries and Observer
	// callbacks are deterministic. A redundant attempt counts as a loss.
	e.successes = e.successes[:0]
	for i, r := range e.rxList {
		txs := e.groupTxs(i)
		rec := e.decideReceiver(i, t)
		if rec.deliverIdx >= 0 {
			got := txs[rec.deliverIdx]
			e.deliver(got.Packet, r, t)
			e.successes = append(e.successes, success{got.From, got.Packet})
		}
		res.Transmissions += len(txs)
		for j, tx := range txs {
			res.TxPerNode[tx.From]++
			outcome := rec.outcome(j)
			switch outcome {
			case TxJammed:
				res.JamFailures++
			case TxBusy:
				res.BusyFailures++
			case TxCollision:
				res.CollisionFailures++
			case TxLoss, TxRedundant:
				res.LossFailures++
			}
			if cfg.Observer != nil {
				cfg.Observer.OnTransmit(t, tx.From, r, tx.Packet, outcome)
			}
		}
	}

	// Phases E + F: overhearing. An awake neighbor of a successful sender
	// with none of slotFlags is flagged on first sight, so it is decided
	// once, against the slot's successes; the hits are then sorted into
	// ascending node order before any of them is delivered. A node that
	// received in phase D was targeted, so the filter also keeps out
	// every node that already decoded a packet this slot.
	if cfg.Protocol.Overhears() && len(e.successes) > 0 {
		for si, s := range e.successes {
			e.senderSuccess[s.from] = int32(si)
		}
		hits := e.ohHits[:0]
		for _, s := range e.successes {
			row, _ := w.csr.Row(s.from)
			for _, o32 := range row {
				if w.flags[o32]&(flagAwake|slotFlags) != flagAwake {
					continue
				}
				e.mark(int(o32), flagOverheard)
				e.statOhCands++
				if dsi := e.decideOverhear(int(o32), t); dsi >= 0 {
					hits = append(hits, ohHit{node: o32, succ: dsi})
				}
			}
		}
		// Node ids are unique within a slot's hits (the flag guarantees it).
		slices.SortFunc(hits, func(a, b ohHit) int { return int(a.node - b.node) })
		for _, h := range hits {
			s := e.successes[h.succ]
			e.deliver(s.packet, int(h.node), t)
			res.Overheard++
			if cfg.Observer != nil {
				cfg.Observer.OnOverhear(t, s.from, int(h.node), s.packet)
			}
		}
		e.ohHits = hits
		for _, s := range e.successes {
			e.senderSuccess[s.from] = -1
		}
	}

	e.accountCoverage(t)
	e.cleanupSlot()
	return nil
}

// byReceiver orders intents by receiver.
func byReceiver(a, b Intent) int { return cmp.Compare(a.To, b.To) }

// admitIntents is phase B: the protocol's Intents, grouped by ascending
// receiver, then admitted (vetIntent) into the flat receiver-group arena.
// The possession journal is emptied as soon as Intents returns.
// A stable sort keeps each receiver's intents in the protocol's order; a
// protocol whose intents already ascend is admitted without a copy.
func (e *engine) admitIntents(t int64) error {
	ins := e.cfg.Protocol.Intents(e.w)
	// The possession journal holds the changes since the previous Intents
	// call; whatever this one did not take has been passed by.
	e.w.holderLog = e.w.holderLog[:0]
	if !slices.IsSortedFunc(ins, byReceiver) {
		e.sorted = append(e.sorted[:0], ins...)
		slices.SortStableFunc(e.sorted, byReceiver)
		ins = e.sorted
	}
	e.rxList = e.rxList[:0]
	e.rxFlat = e.rxFlat[:0]
	e.rxOff = e.rxOff[:0]
	lastTo := -1
	for _, in := range ins {
		ok, err := e.vetIntent(&in, t)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if in.To != lastTo {
			e.mark(in.To, flagTargeted)
			e.rxList = append(e.rxList, in.To)
			e.rxOff = append(e.rxOff, int32(len(e.rxFlat)))
			lastTo = in.To
		}
		e.rxFlat = append(e.rxFlat, in)
	}
	e.rxOff = append(e.rxOff, int32(len(e.rxFlat)))
	return nil
}

// decideReceiver returns the outcome at receiver rxList[i], drawing only
// from the receiver's keyed stream. It reads pre-slot world state and the
// slot's admissions, none of which a delivery changes. Link PRRs come
// with the intent group (admission filled in unknown ones), so no
// adjacency lookup happens here.
func (e *engine) decideReceiver(i int, t int64) rxRecord {
	cfg := &e.cfg
	r := e.rxList[i]
	txs := e.groupTxs(i)
	rec := rxRecord{fail: TxLoss, deliverIdx: -1}
	switch {
	case e.inj != nil && e.inj.Jammed(t, r):
		rec.fail = TxJammed
	case e.w.flags[r]&flagTransmitting != 0:
		rec.fail = TxBusy
	case len(txs) > 1 && cfg.Protocol.CollisionsApply():
		rec.fail = TxCollision
	case len(txs) == 1:
		// One attempt draws at most once, so only the keyed stream's
		// first uniform is derived; Bool's clamps are kept.
		if p := e.scaledPRR(&txs[0], t); p >= 1 || p > 0 && e.slotStream.SubFloat64(uint64(r)*2) < p {
			rec.deliverIdx = 0
		}
	default:
		rng := e.slotStream.SubValue(uint64(r) * 2)
		for j := range txs {
			if rng.Bool(e.scaledPRR(&txs[j], t)) {
				rec.deliverIdx = int32(j)
				break
			}
		}
	}
	return rec
}

// decideOverhear decides which of this slot's successful senders (an
// index into successes, -1 for none) candidate node o decodes. Draws come
// from the node's keyed stream; candidates walk their own neighbor row in
// ascending id order and the first decode wins — a node receives at most
// once per slot. The result is a pure function of (seed, slot, o),
// independent of which sender's row reached o first. Nodes outside the
// candidate set would never have reached a draw — they have no
// successful-sender neighbor — so restricting the scan to candidates
// changes no outcome.
func (e *engine) decideOverhear(o int, t int64) int32 {
	w := e.w
	if e.inj != nil && e.inj.Jammed(t, o) {
		return -1
	}
	row, prrs := w.csr.Row(o)
	rng := e.slotStream.SubValue(uint64(o)*2 + 1)
	for j, nb := range row {
		si := e.senderSuccess[nb]
		if si < 0 {
			continue
		}
		p := prrs[j]
		if e.inj != nil {
			p *= e.inj.LinkScale(t, int(nb), o)
		}
		if p <= 0 || w.Has(e.successes[si].packet, o) {
			continue
		}
		if rng.Bool(p) {
			return si
		}
	}
	return -1
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int {
	return a / gcd(a, b) * b
}
