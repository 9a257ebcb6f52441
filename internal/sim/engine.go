package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
)

// ErrInterrupted is wrapped by the error Run returns when a
// Config.Interrupt hook aborts the run; test for it with errors.Is. The
// batch runner (internal/runner) relies on it to distinguish an imposed
// timeout or cancellation from an engine failure.
var ErrInterrupted = errors.New("sim: run interrupted")

// coverTarget returns the node count that defines packet completion,
// ⌈coverage·n⌉ clamped to [1, n].
func coverTarget(coverage float64, n int) int {
	c := int(math.Ceil(coverage * float64(n)))
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// success records one decoded unicast of the current slot; overhearing
// fans out from successful senders after all receptions resolve.
type success struct{ from, packet int }

// engine bundles one run's mutable state: configuration, world, result
// accumulators, RNG streams, and the per-slot scratch buffers. All scratch
// is allocated once at setup so the slot loop runs allocation-free in the
// steady state.
type engine struct {
	cfg        Config
	w          *World
	res        *Result
	syncRNG    *rngutil.Stream
	n          int
	interval   int
	coverNodes int
	maxSlots   int64
	covered    int

	// Keyed-stream slot resolution (see slot.go). slotRoot seeds the
	// per-slot stream tree; slotStream is re-derived at the top of every
	// slot.
	slotRoot   *rngutil.Stream
	slotStream rngutil.Stream

	// Fault injection (nil/empty when Config.Faults is unset, in which
	// case every hook below is a single nil or length check in the hot
	// loop). events is the compiled churn timeline, consumed in slot order
	// through eventCursor; a node that is currently down carries
	// flagCrashed.
	inj         *fault.Injector
	events      []fault.Event
	eventCursor int

	// tel is the resolved telemetry instrument set, nil when
	// Config.Telemetry is unset — in which case every telemetry site in the
	// slot loop is one predictable nil-check branch (see telemetry.go).
	tel *simTel

	// Per-slot scratch, reused across slots. rxList is the receivers
	// targeted this slot. touched lists the nodes given one of slotFlags
	// this slot, for cleanupSlot.
	rxList    []int
	successes []success
	touched   []int32
	// scan holds the nodes scheduled awake when there is no awake plan.
	scan []int32

	// milestones lists the packets whose holder count a delivery brought
	// to 2 or to coverNodes this slot, for accountCoverage.
	milestones []int32

	// Overhearing scratch: senderSuccess maps a sender to its index in
	// successes (-1 otherwise), reset sparsely after every slot; ohHits
	// lists the slot's overhear hits.
	senderSuccess []int32
	ohHits        []ohHit

	// Phase B state. Admitted intents, ascending by receiver, land in one
	// flat arena, rxFlat, with rxOff[i] marking where rxList[i]'s group
	// starts; each carries its link PRR, so the decision phases never
	// repeat the adjacency lookup. sorted holds a protocol's intents when
	// they arrive out of receiver order.
	rxFlat []Intent
	rxOff  []int32
	sorted []Intent

	// Deterministic accounting drained into telemetry: receiver groups
	// admitted in phase B and overhear candidates decided in phase E.
	statSlotRecv int64
	statOhCands  int64

	// everySlot disables the awake plan, so runSlots scans every schedule
	// on every slot: the reference loop the skip is tested against.
	everySlot bool
}

// Run executes one simulation until every packet reaches the coverage
// target or the slot horizon expires. Runs are bit-for-bit reproducible for
// a given Config (including Seed); Config.Workers is ignored.
func Run(cfg Config) (*Result, error) { return run(cfg, false) }

func run(cfg Config, everySlot bool) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	interval := cfg.InjectInterval
	if interval == 0 {
		interval = 1
	}
	coverage := cfg.Coverage
	if coverage == 0 {
		coverage = 0.99
	}
	n := cfg.Graph.N()
	coverNodes := coverTarget(coverage, n)
	maxPeriod := 1
	for _, s := range cfg.Schedules {
		if s.Period() > maxPeriod {
			maxPeriod = s.Period()
		}
	}
	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		// Worst case ~ M injections, each needing O(diameter) hops at
		// O(period / PRR) slots per hop; pad generously.
		maxSlots = int64(maxPeriod) * int64(cfg.M+n+100) * 40
	}

	root := rngutil.New(cfg.Seed)

	pwords := (cfg.M + 63) / 64
	w := &World{
		Graph:          cfg.Graph,
		Schedules:      cfg.Schedules,
		M:              cfg.M,
		InjectInterval: interval,
		ProtoRNG:       root.SubName("protocol"),
		has:            make([]uint64, n*pwords),
		pwords:         pwords,
		heldCount:      make([]int, n),
		recvTime:       make([]int64, n*cfg.M),
		count:          make([]int, cfg.M),
		holderNbrs:     make([]int32, n),
		flags:          make([]uint8, n),
		csr:            cfg.Graph.CSR(),
	}
	for i := range w.recvTime {
		w.recvTime[i] = -1
	}

	res := &Result{
		Protocol:          cfg.Protocol.Name(),
		M:                 cfg.M,
		CoverNodes:        coverNodes,
		InjectTime:        make([]int64, cfg.M),
		CoverTime:         make([]int64, cfg.M),
		Delay:             make([]int64, cfg.M),
		FirstHopDelay:     make([]int64, cfg.M),
		TxPerNode:         make([]int, n),
		AwakeSlotsPerNode: make([]int64, n),
	}
	for p := 0; p < cfg.M; p++ {
		res.InjectTime[p] = -1
		res.CoverTime[p] = -1
		res.Delay[p] = -1
		res.FirstHopDelay[p] = -1
	}

	cfg.Protocol.Reset(w)

	e := &engine{
		cfg:        cfg,
		w:          w,
		res:        res,
		syncRNG:    root.SubName("sync"),
		n:          n,
		interval:   interval,
		coverNodes: coverNodes,
		maxSlots:   maxSlots,
		everySlot:  everySlot,
	}
	if cfg.Faults != nil {
		// The fault stream is derived from (not drawn from) the root, so
		// attaching a schedule leaves the sync/protocol/slot streams — and
		// therefore any unfaulted behavior — untouched.
		e.inj = cfg.Faults.Compile(cfg.Graph, root.SubName("fault"))
		e.events = e.inj.Events()
	}
	// The stream keeps its old name: renaming it would change every result.
	e.slotRoot = root.SubName("shard")
	e.senderSuccess = make([]int32, n)
	for i := range e.senderSuccess {
		e.senderSuccess[i] = -1
	}

	if cfg.Telemetry != nil {
		e.tel = newSimTel(cfg.Telemetry)
	}
	if err := e.runSlots(); err != nil {
		return nil, err
	}
	if e.tel != nil {
		e.tel.finish(e, cfg.Telemetry)
	}

	res.Completed = e.covered == cfg.M
	if cfg.RecordReceptions {
		res.NodeRecvTime = make([][]int64, cfg.M)
		for p := range res.NodeRecvTime {
			row := make([]int64, n)
			for node := range row {
				row[node] = w.recvTime[node*cfg.M+p]
			}
			res.NodeRecvTime[p] = row
		}
	}
	return res, nil
}

// applyFaults applies every compiled churn event due at or before slot t:
// a crash drops the node's buffered packets and forces it dormant until
// its reboot event (if any) brings it back.
func (e *engine) applyFaults(t int64) {
	for e.eventCursor < len(e.events) && e.events[e.eventCursor].At <= t {
		ev := e.events[e.eventCursor]
		e.eventCursor++
		if ev.Up {
			e.w.flags[ev.Node] &^= flagCrashed
			e.res.Reboots++
		} else {
			e.w.flags[ev.Node] |= flagCrashed
			e.res.Crashes++
			e.res.CrashDropped += e.w.dropAll(ev.Node)
		}
	}
}

// interruptErr wraps ErrInterrupted with run context.
func (e *engine) interruptErr(t int64) error {
	return fmt.Errorf("sim: %s aborted at slot %d: %w",
		e.cfg.Protocol.Name(), t, ErrInterrupted)
}

// inject admits every packet whose injection time is slot t: packet p
// enters at slot p×interval at the source (node 0).
func (e *engine) inject(t int64) {
	for e.w.injected < e.cfg.M && t == int64(e.w.injected)*int64(e.interval) {
		p := e.w.injected
		e.w.injected++
		for i := range e.w.flags {
			e.w.flags[i] |= flagNeedy
		}
		e.deliver(p, 0, t)
		e.res.InjectTime[p] = t
		if e.cfg.Observer != nil {
			e.cfg.Observer.OnInject(t, p)
		}
	}
}

// runSlots is the slot loop. Precomputed hyperperiod buckets give the
// awake set in O(awake) per slot, and the loop steps over slots whose
// offset bucket is empty unless a packet is injected there — the paper's
// compact time scale (Section III), derived from the static schedules
// alone. When the hyperperiod is too large to bucket (or the every-slot
// test reference is asked for) an O(n) schedule scan recomputes the awake
// set and every slot is visited. Skipped slots have nobody awake, so
// visiting them would change nothing: the fault timeline and link chains
// catch up lazily at the next visited slot.
func (e *engine) runSlots() error {
	w, res, cfg := e.w, e.res, &e.cfg
	var plan *awakePlan
	if !e.everySlot {
		plan = newAwakePlan(cfg.Schedules)
	}
	// Without a fault injector no node can crash, so the per-node awake
	// tally is a pure function of the static schedules and the horizon —
	// computed arithmetically after the loop instead of incrementing per
	// awake node per slot.
	countAwake := plan == nil || e.inj != nil
	for t := int64(0); t < e.maxSlots && e.covered < cfg.M; t++ {
		if plan != nil {
			if t = e.skip(plan, t); t == e.maxSlots {
				// Nothing can happen before the horizon. Catch the fault
				// timeline up to the last slot, as visiting it would.
				e.applyFaults(t - 1)
				if e.inj != nil {
					e.inj.Sync(t - 1)
				}
				res.TotalSlots = t
				break
			}
		}
		if cfg.Interrupt != nil && cfg.Interrupt(t) {
			return e.interruptErr(t)
		}
		w.now = t
		e.applyFaults(t)
		e.inject(t)
		e.wake(e.scheduled(plan, t), countAwake)
		if err := e.resolveSlot(t); err != nil {
			return err
		}
		res.TotalSlots = t + 1
		if e.tel != nil {
			e.tel.tick(e)
		}
	}
	if !countAwake {
		for i := 0; i < e.n; i++ {
			res.AwakeSlotsPerNode[i] = cfg.Schedules[i].ActiveCountBefore(res.TotalSlots)
		}
	}
	return nil
}

// scheduled returns the nodes scheduled awake at slot t, ascending: the
// plan's bucket, or a scan of every schedule when there is no plan.
func (e *engine) scheduled(plan *awakePlan, t int64) []int32 {
	if plan != nil {
		return plan.buckets[t%plan.L]
	}
	e.scan = e.scan[:0]
	for i, s := range e.cfg.Schedules {
		if s.IsActive(t) {
			e.scan = append(e.scan, int32(i))
		}
	}
	return e.scan
}

// wake builds the slot's awake set and frontier from the nodes scheduled
// awake, ascending. Crashed nodes stay dormant regardless of schedule.
// It runs after the slot's crashes and injections, so the frontier reads
// the pre-slot state. Every awake node is written to the frontier and its
// length advances only past a node whose byte has frontierFlags, so that
// test feeds no branch.
func (e *engine) wake(scheduled []int32, countAwake bool) {
	w := e.w
	for _, i := range w.awakeList {
		w.flags[i] &^= flagAwake
	}
	if cap(w.frontier) < len(scheduled) {
		w.frontier = make([]int, len(scheduled))
	}
	awake, fr := w.awakeList[:0], w.frontier[:len(scheduled)]
	k := 0
	for _, i := range scheduled {
		f := w.flags[i]
		if f&flagCrashed != 0 {
			continue
		}
		w.flags[i] = f | flagAwake
		awake = append(awake, int(i))
		if countAwake {
			e.res.AwakeSlotsPerNode[i]++
		}
		fr[k] = int(i)
		in := 0
		if f&frontierFlags == frontierFlags {
			in = 1
		}
		k += in
	}
	w.awakeList, w.frontier = awake, fr[:k]
}

// vetIntent is admission without the grouping: PacketFCFS resolution,
// validation, the one-transmission-per-sender rule, and the
// synchronization-miss draw. It fills in in's packet and link PRR and
// reports whether the intent survives to a receiver group. A zero PRR is
// looked up; a protocol that read it off a CSR row passes it on, which
// keeps the binary search off the slot's spine (links always have PRR >
// 0, so the link-existence check is the same either way).
func (e *engine) vetIntent(in *Intent, t int64) (bool, error) {
	w, res, cfg := e.w, e.res, &e.cfg
	if in.From < 0 || in.From >= e.n || in.To < 0 || in.To >= e.n || in.From == in.To {
		return false, fmt.Errorf("sim: protocol %s produced invalid intent %+v", cfg.Protocol.Name(), *in)
	}
	if in.Packet == PacketFCFS {
		// The world is frozen until phase D, so this equals the scan
		// the protocol would have made while deciding.
		in.Packet = w.OldestNeeded(in.From, in.To)
	}
	if in.Packet < 0 || in.Packet >= w.injected {
		return false, fmt.Errorf("sim: intent for uninjected packet %d", in.Packet)
	}
	if !w.Has(in.Packet, in.From) {
		return false, fmt.Errorf("sim: node %d does not hold packet %d", in.From, in.Packet)
	}
	if in.PRR == 0 {
		in.PRR = w.csr.PRROf(in.From, in.To)
	}
	if in.PRR <= 0 {
		return false, fmt.Errorf("sim: intent over non-link %d-%d", in.From, in.To)
	}
	if w.flags[in.To]&flagAwake == 0 {
		return false, fmt.Errorf("sim: intent to dormant node %d", in.To)
	}
	if w.flags[in.From]&flagTransmitting != 0 {
		return false, nil // one transmission per sender per slot
	}
	if w.Has(in.Packet, in.To) {
		return false, nil // receiver already has it; drop silently
	}
	e.mark(in.From, flagTransmitting)
	if cfg.SyncErrorProb > 0 && e.syncRNG.Bool(cfg.SyncErrorProb) {
		// Local-synchronization miss: the sender fires at the
		// wrong slot and nobody is listening.
		res.Transmissions++
		res.TxPerNode[in.From]++
		res.SyncFailures++
		if cfg.Observer != nil {
			cfg.Observer.OnTransmit(t, in.From, in.To, in.Packet, TxSync)
		}
		return false, nil
	}
	return true, nil
}

// scaledPRR returns tx's link PRR after any fault-schedule degradation at
// slot t.
func (e *engine) scaledPRR(tx *Intent, t int64) float64 {
	p := tx.PRR
	if e.inj != nil && p > 0 {
		p *= e.inj.LinkScale(t, tx.From, tx.To)
	}
	return p
}

// accountCoverage latches the per-packet coverage and first-hop
// milestones this slot's deliveries reached, in ascending packet order.
// Holder counts only grow within a slot (crashes drop packets before
// injection), so a packet first reaches 2 or coverNodes holders exactly
// when a delivery brings it there, and deliver lists it then.
func (e *engine) accountCoverage(t int64) {
	if len(e.milestones) == 0 {
		return
	}
	res, cfg := e.res, &e.cfg
	slices.Sort(e.milestones)
	for _, p32 := range slices.Compact(e.milestones) {
		p := int(p32)
		if res.CoverTime[p] == -1 && e.w.count[p] >= e.coverNodes {
			res.CoverTime[p] = t
			res.Delay[p] = t - res.InjectTime[p]
			e.covered++
			if cfg.Observer != nil {
				cfg.Observer.OnCovered(t, p)
			}
		}
		if res.FirstHopDelay[p] == -1 && e.w.count[p] >= 2 {
			res.FirstHopDelay[p] = t - res.InjectTime[p]
		}
	}
	e.milestones = e.milestones[:0]
}

// groupTxs returns receiver rxList[i]'s intent group, a slice of the
// flat arena.
func (e *engine) groupTxs(i int) []Intent {
	return e.rxFlat[e.rxOff[i]:e.rxOff[i+1]]
}

// mark sets slot flag f on node i, listing the node in touched the first
// time it gets one of slotFlags.
func (e *engine) mark(i int, f uint8) {
	if e.w.flags[i]&slotFlags == 0 {
		e.touched = append(e.touched, int32(i))
	}
	e.w.flags[i] |= f
}

// cleanupSlot clears slotFlags from the nodes this slot touched, so
// consecutive slots need no O(n) wipes. The awake flags stay until the
// next visited slot rebuilds the awake set, so IsAwake agrees with
// AwakeList between slots.
func (e *engine) cleanupSlot() {
	w := e.w
	for _, i := range e.touched {
		w.flags[i] &^= slotFlags
	}
	e.touched = e.touched[:0]
}

// deliver records node's reception of packet p at slot t, keeps the
// neighbours' holder counts current, and lists p for accountCoverage when
// the reception brings its holder count to 2 or to coverNodes.
func (e *engine) deliver(p, node int, t int64) {
	w := e.w
	if !w.deliver(p, node, t) {
		return
	}
	if w.heldCount[node] == 1 {
		w.addHolderNbr(node, 1)
	}
	if w.heldCount[node] == w.injected {
		w.flags[node] &^= flagNeedy
	}
	if w.nbrHeld != nil {
		w.addHolder(p, node, 1)
	}
	if c := w.count[p]; c == 2 || c == e.coverNodes {
		e.milestones = append(e.milestones, int32(p))
	}
}
