package sim

// Keyed-stream slot resolution, the engine's one slot discipline. Every
// random decision of a slot comes from a stream keyed by (run seed, slot,
// node): each receiver (and each potential overhearer) derives a private
// stream and consumes only it, so the per-node decisions are pure
// functions of pre-slot state and can be evaluated concurrently by a
// bounded worker pool, then merged in a fixed ascending-node order.
// Results are bit-for-bit identical for every worker count; Config.Workers
// 0 and 1 run every phase inline.
//
// A slot resolves in phases:
//
//	A (serial)   faults, injection, chain Sync, awake set — in the caller.
//	B            protocol intents. Protocols implementing ShardPlanner
//	             (see planner.go) plan per-receiver candidates in parallel
//	             and select serially; plain protocols are adapted as
//	             planners whose selection returns their Intents grouped by
//	             receiver. Validation and the syncRNG draws are one
//	             sequential stream in emission order.
//	C (parallel) per-receiver delivery decisions into rxRec.
//	D (serial)   merge rxRec in ascending receiver order: counters,
//	             deliveries, Observer callbacks.
//	E (parallel) overhearing: workers scan the successful senders'
//	             concatenated neighbor rows, filter to awake, silent,
//	             untargeted nodes, claim each survivor with an atomic
//	             compare-and-swap (so a node adjacent to two successes is
//	             decided exactly once), and decide the claimed nodes into
//	             per-chunk hit lists.
//	F (serial)   concatenate the hit lists and sort the hits into ascending
//	             node order — O(delivered·log delivered), not O(row entries
//	             scanned) — then shared coverage accounting and scratch
//	             cleanup.
//
// Pool mechanics: workers are persistent goroutines; a batch publishes an
// atomic claim counter over fixed-size chunks and every worker (plus the
// submitting goroutine) steals the next unclaimed chunk until the batch
// drains. Chunk size is count/(workers·chunksPerWorker) floored at a
// per-phase minimum keyed to the per-item cost — for the plan and overhear
// phases the count is exactly the slot's awake-bucket density, so dense
// slots get many small chunks (fine-grained stealing) and sparse slots
// collapse to a single inline call with no synchronization at all. Chunk
// geometry never affects results — decisions are keyed per node, and the
// only cross-chunk state (overhear hit lists) is merged and sorted into
// ascending node order before any world mutation.
//
// Whether the pool pays is a wall-clock question, answered by cmd/engbench
// -scale (BENCH_scale.json): on a 2-vCPU host inline execution (Workers:
// 1) is faster at 10k nodes, and at 100k nodes two workers no longer beat
// it by more than the run-to-run spread, for OPT or DBAO.

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ldcflood/internal/schedule"
)

// rxKind classifies a receiver's slot outcome.
type rxKind uint8

const (
	rxJam rxKind = iota
	rxBusy
	rxCollision // collision with no capture
	rxCapture   // capture effect salvaged deliverIdx
	rxSeq       // sequential attempts; deliverIdx is the first success
)

// rxRecord is one receiver's delivery decision, produced by a worker in
// phase C and applied serially in phase D.
type rxRecord struct {
	kind rxKind
	// deliverIdx indexes the delivered intent within the receiver's intent
	// group, or -1 when nothing was decoded.
	deliverIdx int32
}

// ohHit is one overhearing delivery: node decoded the success at index
// succ. Produced into per-chunk lists, concatenated and sorted by node id
// before application, so deliveries land in ascending node order
// regardless of which chunk claimed the node.
type ohHit struct {
	node int32
	succ int32
}

// ohChunk is one chunk's overhear output, padded to a cache line so
// workers appending to neighboring chunks never share one: the hits, and
// the nodes this chunk claimed via ohSeen (walked to reset the flags and
// tallied into the candidate telemetry).
type ohChunk struct {
	hits    []ohHit
	claimed []int32
	_       [16]byte
}

// Per-phase chunk-size floors. A chunk must amortize one atomic claim
// (~tens of ns), so cheap per-item phases take coarser floors than the
// row-scanning ones. The ceiling count/(workers·chunksPerWorker) dominates
// on dense slots; these floors only matter near the single-chunk cutoff.
const (
	chunksPerWorker = 32
	planMinChunk    = 2 // PlanReceiver: neighbor-row scan + keyed draws
	rxMinChunk      = 4 // decideReceiver: a few draws per receiver
	ohMinChunk      = 4 // decideOverhear: per-candidate filter + draws
	fcfsMinChunk    = 8 // OldestNeeded bitset scan
)

// debugMinChunk caps every phase's chunk-size floor. The default is above
// all per-phase floors and therefore inert; the adversarial stress and
// fuzz suites lower it to force one-item chunks and maximal interleaving.
// Chunk geometry never affects results — decisions are keyed per node.
var debugMinChunk = 64

// shardPool is a bounded set of persistent workers draining atomically
// claimed chunks of index ranges. The submitting goroutine participates in
// every batch, so a pool of w workers runs w-1 goroutines.
type shardPool struct {
	workers int
	wake    []chan struct{} // one buffered slot per spawned worker
	stop    chan struct{}

	// Current batch, written by the submitter before the wake sends and
	// read by workers after the receives (the channel orders the accesses).
	fn    func(worker, chunk, lo, hi int)
	count int
	chunk int
	next  atomic.Int64
	wg    sync.WaitGroup

	// Deterministic batch accounting, drained into telemetry by the
	// engine. Submitter-only writes.
	batches, chunks, items int64
}

func newShardPool(workers int) *shardPool {
	p := &shardPool{workers: workers, stop: make(chan struct{})}
	p.wake = make([]chan struct{}, workers-1)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.work(i + 1)
	}
	return p
}

func (p *shardPool) work(id int) {
	for {
		select {
		case <-p.wake[id-1]:
		case <-p.stop:
			return
		}
		p.drain(id)
		p.wg.Done()
	}
}

func (p *shardPool) close() { close(p.stop) }

// drain claims and runs chunks until the batch is exhausted. Chunk indices
// are lo/chunk, so fn can address per-chunk output slots without any
// shared bookkeeping.
func (p *shardPool) drain(worker int) {
	count, chunk := p.count, p.chunk
	for {
		lo := int(p.next.Add(int64(chunk))) - chunk
		if lo >= count {
			return
		}
		hi := min(lo+chunk, count)
		p.fn(worker, lo/chunk, lo, hi)
	}
}

// plan returns the chunk geometry runShards will use for a batch of count
// items with the given per-phase floor: size count/(workers·chunksPerWorker)
// rounded up, floored at min(minChunk, debugMinChunk). Exposed separately
// so callers can size per-chunk output arenas before submitting.
func (p *shardPool) plan(count, minChunk int) (chunk, nchunks int) {
	if minChunk > debugMinChunk {
		minChunk = debugMinChunk
	}
	if minChunk < 1 {
		minChunk = 1
	}
	chunk = (count + p.workers*chunksPerWorker - 1) / (p.workers * chunksPerWorker)
	if chunk < minChunk {
		chunk = minChunk
	}
	nchunks = (count + chunk - 1) / chunk
	return chunk, nchunks
}

// runShards partitions [0, count) into chunks and runs fn over them on
// every pool member concurrently, returning when all are processed. fn
// must write only to indices in its range (or to the chunk slot named by
// its chunk argument). Single-chunk batches run inline on the submitter
// with zero synchronization.
func (p *shardPool) runShards(count, minChunk int, fn func(worker, chunk, lo, hi int)) {
	if count <= 0 {
		return
	}
	chunk, nchunks := p.plan(count, minChunk)
	if p.workers == 1 || nchunks == 1 {
		fn(0, 0, 0, count)
		return
	}
	p.fn, p.count, p.chunk = fn, count, chunk
	p.next.Store(0)
	p.batches++
	p.chunks += int64(nchunks)
	p.items += int64(count)
	p.wg.Add(len(p.wake))
	for _, c := range p.wake {
		c <- struct{}{}
	}
	p.drain(0)
	p.wg.Wait()
	p.fn = nil
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
	// Ascending node order per bucket, the AwakeList order.
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

// resolveSlotKeyed resolves one slot; the caller must have set w.now and
// the awake set. See the comment at the top of this file for the phase
// structure. Scratch state touched during the slot is cleared before
// returning, so consecutive calls need no O(n) wipes.
func (e *engine) resolveSlotKeyed(t int64) error {
	w, res, cfg := e.w, e.res, &e.cfg

	// Phase A tail: advance every fault chain to t now, serially, so the
	// workers' effPRR queries below are pure reads.
	if e.inj != nil {
		e.inj.Sync(t)
	}
	// The slot's stream subtree root and its protocol-planning stream.
	// Written here (serially), only read by workers.
	e.slotStream = e.shardRoot.SubValue(uint64(t))
	w.protoSlot = e.slotStream.SubValue(protoStreamKey)

	// Phase B.
	if err := e.planIntents(t); err != nil {
		return err
	}
	e.statMergeRecv += int64(len(e.rxList))

	// Phase C: every targeted receiver decides its outcome from its
	// private (seed, slot, receiver) stream.
	if cap(e.rxRec) < len(e.rxList) {
		e.rxRec = make([]rxRecord, len(e.rxList))
	}
	e.rxRec = e.rxRec[:len(e.rxList)]
	e.pool.runShards(len(e.rxList), rxMinChunk, e.decideFn)

	// Phase D: apply the records in ascending receiver order, so counters,
	// deliveries and Observer callbacks are deterministic.
	e.successes = e.successes[:0]
	for i, r := range e.rxList {
		txs := e.groupTxs(i)
		res.Transmissions += len(txs)
		for _, tx := range txs {
			res.TxPerNode[tx.in.From]++
		}
		e.targeted[r] = true
		rec := e.rxRec[i]
		switch rec.kind {
		case rxJam:
			res.JamFailures += len(txs)
			if cfg.Observer != nil {
				for _, tx := range txs {
					cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxJammed)
				}
			}
		case rxBusy:
			res.BusyFailures += len(txs)
			if cfg.Observer != nil {
				for _, tx := range txs {
					cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxBusy)
				}
			}
		case rxCollision:
			res.CollisionFailures += len(txs)
			if cfg.Observer != nil {
				for _, tx := range txs {
					cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxCollision)
				}
			}
		case rxCapture:
			best := txs[rec.deliverIdx]
			res.Captures++
			e.deliverNow(best.in.Packet, r, t)
			e.successes = append(e.successes, success{best.in.From, r, best.in.Packet})
			res.CollisionFailures += len(txs) - 1
			if cfg.Observer != nil {
				for j, tx := range txs {
					outcome := TxCollision
					if j == int(rec.deliverIdx) {
						outcome = TxSuccess
					}
					cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, outcome)
				}
			}
		case rxSeq:
			if rec.deliverIdx < 0 {
				res.LossFailures += len(txs)
				if cfg.Observer != nil {
					for _, tx := range txs {
						cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, TxLoss)
					}
				}
			} else {
				got := txs[rec.deliverIdx]
				res.LossFailures += len(txs) - 1
				e.deliverNow(got.in.Packet, r, t)
				e.successes = append(e.successes, success{got.in.From, r, got.in.Packet})
				if cfg.Observer != nil {
					for j, tx := range txs {
						outcome := TxSuccess
						if j < int(rec.deliverIdx) {
							outcome = TxLoss
						} else if j > int(rec.deliverIdx) {
							outcome = TxRedundant
						}
						cfg.Observer.OnTransmit(t, tx.in.From, r, tx.in.Packet, outcome)
					}
				}
			}
		}
	}

	// Phases E + F: overhearing, entirely on the pool. The successful
	// senders' (symmetric) neighbor rows are logically concatenated into
	// one index space (ohOff is a prefix sum over row lengths); workers
	// scan their index range, filter to awake, silent, untargeted nodes,
	// claim each survivor with a compare-and-swap on its ohSeen flag —
	// exactly one claimer decides any node — and decide the claimed node
	// against the slot's
	// successes. Which chunk claims a node contested between two rows is
	// scheduling-dependent, but the decision is a pure function of
	// (seed, slot, node), so the hit set is not; the merge sorts the hits
	// into ascending node order before any delivery —
	// O(delivered·log delivered), never O(row entries scanned).
	if cfg.Protocol.Overhears() && len(e.successes) > 0 {
		for si, s := range e.successes {
			e.senderSuccess[s.from] = int32(si)
		}
		rows := e.ohRows[:0]
		off := e.ohOff[:0]
		total := 0
		for _, s := range e.successes {
			row, _ := e.csr.Row(s.from)
			rows = append(rows, row)
			off = append(off, int32(total))
			total += len(row)
		}
		off = append(off, int32(total))
		e.ohRows, e.ohOff = rows, off
		if total > 0 {
			_, nchunks := e.pool.plan(total, ohMinChunk)
			for len(e.ohHits) < nchunks {
				e.ohHits = append(e.ohHits, ohChunk{})
			}
			hits := e.ohHits[:nchunks]
			e.pool.runShards(total, ohMinChunk, e.overhearFn)
			all := e.ohAll[:0]
			for c := range hits {
				all = append(all, hits[c].hits...)
				e.statOhCands += int64(len(hits[c].claimed))
			}
			e.ohAll = all
			// Ascending node order. Node ids are unique within a slot's hits
			// (the claim guarantees it).
			slices.SortFunc(all, func(a, b ohHit) int { return int(a.node - b.node) })
			for _, h := range all {
				s := e.successes[h.succ]
				e.deliverNow(s.packet, int(h.node), t)
				res.Overheard++
				if cfg.Observer != nil {
					cfg.Observer.OnOverhear(t, s.from, int(h.node), s.packet)
				}
			}
			for c := range hits {
				for _, o := range hits[c].claimed {
					e.ohSeen[o].Store(false)
				}
			}
		}
		for _, s := range e.successes {
			e.senderSuccess[s.from] = -1
		}
	}

	e.accountCoverage(t)
	e.cleanupSlot()
	return nil
}

// decideChunk is phase C over rxList[lo:hi].
func (e *engine) decideChunk(_, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.decideReceiver(i, e.w.now)
	}
}

// overhearChunk is phase E over the index range [lo, hi) of the slot's
// concatenated successful-sender rows (e.ohRows, offsets e.ohOff), writing
// chunk c's hits and claims into e.ohHits[c].
func (e *engine) overhearChunk(_, c, lo, hi int) {
	w, rows, off := e.w, e.ohRows, e.ohOff
	si := sort.Search(len(rows), func(j int) bool { return int(off[j+1]) > lo })
	hs := e.ohHits[c].hits[:0]
	cl := e.ohHits[c].claimed[:0]
	for k := lo; k < hi; k++ {
		for k >= int(off[si+1]) {
			si++
		}
		o := int(rows[si][k-int(off[si])])
		if !w.awake[o] || e.targeted[o] || w.transmitting[o] || e.recvNow[o] {
			continue
		}
		if !e.ohSeen[o].CompareAndSwap(false, true) {
			continue
		}
		cl = append(cl, int32(o))
		if dsi := e.decideOverhear(o, w.now); dsi >= 0 {
			hs = append(hs, ohHit{node: int32(o), succ: dsi})
		}
	}
	e.ohHits[c].hits, e.ohHits[c].claimed = hs, cl
}

// decideReceiver computes rxRec[i]: the outcome at receiver rxList[i],
// drawing only from the receiver's keyed stream. Pure with respect to
// shared state — it reads pre-slot world state and writes one record. Link
// PRRs come stashed in the intent group (admission recorded them), so no
// adjacency lookup happens here.
func (e *engine) decideReceiver(i int, t int64) {
	cfg := &e.cfg
	r := e.rxList[i]
	txs := e.groupTxs(i)
	rec := rxRecord{deliverIdx: -1}
	switch {
	case e.inj != nil && e.inj.Jammed(t, r):
		rec.kind = rxJam
	case e.w.transmitting[r]:
		rec.kind = rxBusy
	case len(txs) > 1 && cfg.Protocol.CollisionsApply():
		rec.kind = rxCollision
		if cfg.CaptureProb > 0 {
			rng := e.slotStream.SubValue(uint64(r) * 2)
			if rng.Bool(cfg.CaptureProb) {
				best := 0
				for j := 1; j < len(txs); j++ {
					if e.scaledPRR(&txs[j], t) > e.scaledPRR(&txs[best], t) {
						best = j
					}
				}
				if rng.Bool(e.scaledPRR(&txs[best], t)) {
					rec.kind = rxCapture
					rec.deliverIdx = int32(best)
				}
			}
		}
	default:
		rec.kind = rxSeq
		rng := e.slotStream.SubValue(uint64(r) * 2)
		for j := range txs {
			if rng.Bool(e.scaledPRR(&txs[j], t)) {
				rec.deliverIdx = int32(j)
				break
			}
		}
	}
	e.rxRec[i] = rec
}

// decideOverhear decides which of this slot's successful senders (an
// index into successes, -1 for none) claimed candidate node o decodes.
// Draws come from the node's keyed stream; candidates walk their own
// neighbor row in ascending id order and the first decode wins — a node
// receives at most once per slot. The result
// is a pure function of (seed, slot, o) — independent of which chunk
// claimed o. Nodes outside the candidate set would never have reached a
// draw — they have no successful-sender neighbor — so restricting the
// scan to candidates changes no outcome.
func (e *engine) decideOverhear(o int, t int64) int32 {
	w := e.w
	if e.inj != nil && e.inj.Jammed(t, o) {
		return -1
	}
	row, prrs := e.csr.Row(o)
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
