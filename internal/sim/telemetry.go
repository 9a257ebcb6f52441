package sim

// Telemetry threading for the slot loop. The engine resolves
// every instrument pointer once at setup (simTel), ticks a slot counter
// live, and drains the Result accumulators into the registry as deltas —
// periodically (every telFlushEvery visited slots) and at run end. The
// accumulators themselves are the engine's existing Result fields, so the
// hot loop gains no new arithmetic: when telemetry is attached the
// per-slot cost is one atomic add, and when it is not (Config.Telemetry ==
// nil) every site is a single predictable e.tel != nil branch.
//
// The counter catalog (names, units, incrementing path) is documented in
// docs/OBSERVABILITY.md; keep the two in sync.

import "ldcflood/internal/telemetry"

// telFlushEvery is how many visited slots pass between periodic drains of
// the Result accumulators into the telemetry registry. Small enough that a
// watcher of a long run sees counters move, large enough that the flush
// (a couple dozen atomic adds) never shows up in a profile.
const telFlushEvery = 4096

// simTel holds the engine's resolved instrument pointers plus the
// last-flushed value of every drained accumulator, so concurrent runs
// sharing one registry each contribute exact deltas.
type simTel struct {
	slotsVisited *telemetry.Counter
	slotsSkipped *telemetry.Counter

	txAttempts  *telemetry.Counter
	txSuccess   *telemetry.Counter
	txLoss      *telemetry.Counter
	txCollision *telemetry.Counter
	txBusy      *telemetry.Counter
	txSync      *telemetry.Counter
	txJammed    *telemetry.Counter
	overheard   *telemetry.Counter

	pktInjected *telemetry.Counter
	pktCovered  *telemetry.Counter

	crashes    *telemetry.Counter
	reboots    *telemetry.Counter
	dropped    *telemetry.Counter
	chainFlips *telemetry.Counter

	// Slot-discipline instruments, drained from the engine's
	// deterministic per-slot tallies (attaching a registry never changes
	// results).
	slotRecv    *telemetry.Counter
	slotOhCands *telemetry.Counter

	visited int64 // slots this run has visited (== slot loop iterations)
	prev    telPrev
}

// telPrev is the last-flushed snapshot of the drained accumulators.
type telPrev struct {
	tx, loss, coll, busy, sync, jam, over int
	injected, covered                     int
	crashes, reboots, dropped             int
	flips                                 int64

	slotRecv, slotOhCands int64
}

// newSimTel resolves the sim counter set against reg and counts the run
// start.
func newSimTel(reg *telemetry.Registry) *simTel {
	reg.Counter("sim.runs.started").Inc()
	return &simTel{
		slotsVisited: reg.Counter("sim.slots.visited"),
		slotsSkipped: reg.Counter("sim.slots.skipped"),
		txAttempts:   reg.Counter("sim.tx.attempts"),
		txSuccess:    reg.Counter("sim.tx.success"),
		txLoss:       reg.Counter("sim.tx.loss"),
		txCollision:  reg.Counter("sim.tx.collision"),
		txBusy:       reg.Counter("sim.tx.busy"),
		txSync:       reg.Counter("sim.tx.sync_miss"),
		txJammed:     reg.Counter("sim.tx.jammed"),
		overheard:    reg.Counter("sim.overheard"),
		pktInjected:  reg.Counter("sim.packets.injected"),
		pktCovered:   reg.Counter("sim.packets.covered"),
		crashes:      reg.Counter("fault.crashes"),
		reboots:      reg.Counter("fault.reboots"),
		dropped:      reg.Counter("fault.packets_dropped"),
		chainFlips:   reg.Counter("fault.chain_flips"),
		slotRecv:     reg.Counter("sim.slot.receivers"),
		slotOhCands:  reg.Counter("sim.slot.overhear_cands"),
	}
}

// tick is called once per visited slot. It keeps
// sim.slots.visited live and periodically drains the accumulators.
func (st *simTel) tick(e *engine) {
	st.visited++
	st.slotsVisited.Inc()
	if st.visited%telFlushEvery == 0 {
		st.flush(e)
	}
}

// addDelta adds the movement of an int accumulator since the last flush
// and updates the stored floor.
func addDelta(c *telemetry.Counter, cur int, prev *int) {
	if d := cur - *prev; d != 0 {
		c.Add(int64(d))
		*prev = cur
	}
}

// addDelta64 is addDelta for int64 accumulators.
func addDelta64(c *telemetry.Counter, cur int64, prev *int64) {
	if d := cur - *prev; d != 0 {
		c.Add(d)
		*prev = cur
	}
}

// flush drains the Result accumulators (and the fault injector's chain
// flips) into the registry as deltas.
func (st *simTel) flush(e *engine) {
	res := e.res
	// Successful transmissions are derived (attempts minus failures), so
	// take the previous derived value before the per-field floors move.
	prevSuccess := st.prev.tx - (st.prev.loss + st.prev.coll + st.prev.busy + st.prev.sync + st.prev.jam)
	addDelta(st.txAttempts, res.Transmissions, &st.prev.tx)
	if d := (res.Transmissions - res.Failures()) - prevSuccess; d != 0 {
		st.txSuccess.Add(int64(d))
	}
	addDelta(st.txLoss, res.LossFailures, &st.prev.loss)
	addDelta(st.txCollision, res.CollisionFailures, &st.prev.coll)
	addDelta(st.txBusy, res.BusyFailures, &st.prev.busy)
	addDelta(st.txSync, res.SyncFailures, &st.prev.sync)
	addDelta(st.txJammed, res.JamFailures, &st.prev.jam)
	addDelta(st.overheard, res.Overheard, &st.prev.over)
	addDelta(st.pktInjected, e.w.injected, &st.prev.injected)
	addDelta(st.pktCovered, e.covered, &st.prev.covered)
	addDelta(st.crashes, res.Crashes, &st.prev.crashes)
	addDelta(st.reboots, res.Reboots, &st.prev.reboots)
	addDelta(st.dropped, res.CrashDropped, &st.prev.dropped)
	if e.inj != nil {
		if d := e.inj.ChainFlips() - st.prev.flips; d != 0 {
			st.chainFlips.Add(d)
			st.prev.flips = e.inj.ChainFlips()
		}
	}
	addDelta64(st.slotRecv, e.statSlotRecv, &st.prev.slotRecv)
	addDelta64(st.slotOhCands, e.statOhCands, &st.prev.slotOhCands)
}

// finish performs the run-end drain: the final accumulator flush, the
// skipped-slot accounting (TotalSlots minus slots actually visited — the
// empty-offset stretches the loop stepped over), and the completion
// counter.
func (st *simTel) finish(e *engine, reg *telemetry.Registry) {
	st.flush(e)
	if skipped := e.res.TotalSlots - st.visited; skipped > 0 {
		st.slotsSkipped.Add(skipped)
	}
	reg.Counter("sim.runs.completed").Inc()
}
