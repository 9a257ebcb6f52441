package flood

import (
	"math"
	"math/bits"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

// DFlood adapts dflood — duplicate-suppression flooding with adaptive
// backoff (Otnes & Haavik, OCEANS'13; the SNIPPETS.md gr-dflood exemplar)
// — to the engine's receiver-initiated slot model, with the exemplar's
// timing constants: Tmin 5, Tmax 65, Ndupl 2 (slots standing in for the
// exemplar's seconds).
//
// Per held packet a node schedules a forwarding slot: its reception slot
// plus Tmin, plus a uniform jitter in [0, Tmax-Tmin), plus a
// deterministic backoff that doubles with every transmission attempt
// already made — the adaptive-backoff rule that spaces out repeats of the
// same packet. Duplicate suppression is a liveness-preserving delay
// rather than a permanent drop: once Ndupl or more of the node's
// neighbors also hold the packet, each further duplicate postpones the
// forwarding slot by another Tmax. The penalty is bounded by the node's
// degree, so a packet some receiver still needs is always forwarded
// eventually — a permanent drop would deadlock the receiver-initiated
// engine.
//
// Suppression is counted in the exemplar's unit: once per (node, packet,
// attempt) timer whose base slot (reception plus delay, before the
// penalty) has passed while the penalty still postpones it, judged at the
// engine's visited slots (FloodCounters, flood.dflood.suppressed).
//
// DFlood runs from a fire calendar. Each (node, packet) timer is an entry
// keyed by the slot at which it next needs a look: its base slot until
// the attempt is counted suppressed, its penalized slot after. A key is a
// lower bound — the neighbour-holder count only rises between the
// explicit re-keys after a crash drop or an emission — so an entry that
// pops early is re-keyed lazily. A popped entry whose penalized slot has
// passed joins the ready set, which it leaves on emission, when a rise in
// its holder count postpones it again, or when every neighbour holds the
// packet (parked until a neighbour's drop re-arms it). prepareSlot, the
// first step of Intents, drains the world's possession journal and pops
// the due entries; a receiver with no ready neighbour is skipped, and
// pairChoice runs only for free ready senders. Idle slots cost O(awake),
// however long the horizon. The calendar is a monotone radix heap keyed by
// slot: a push is O(1), a slot with nothing due costs one comparison with
// the cached minimum, and an event moves between buckets at most once per
// bit of its slot.
//
// Every timing quantity is a pure function of the world state and a keyed
// stream captured at Reset (jitter is keyed by (node, packet, attempt)).
// The attempt counters advance, the cached per-(node, packet) delay is
// redrawn and the timer re-armed only for the slot's chosen timers, after
// every receiver has been decided (commit), so each receiver reads the
// calendar as it stood before the slot. The duplicate count comes from
// the engine's opt-in neighbour-holder count
// (sim.World.TrackNeighborHolders, turned on at Reset), so every
// forwarding-slot query is O(1). The calendar changes only in the
// prepareSlot and commit steps; the schedule is unaffected by the slots
// the engine skips.
type DFlood struct {
	// Tmin and Tmax bound the per-packet forwarding delay in slots: the
	// first attempt fires in [Tmin, Tmax) slots after reception. A Tmin of
	// zero selects the exemplar default (5); a Tmax at or below Tmin
	// selects the default 65, or Tmin+60 (the exemplar's jitter span) when
	// Tmin is 65 or more.
	Tmin, Tmax int64
	// Ndupl is the duplicate threshold: with at least Ndupl neighboring
	// holders, each additional holder delays the forwarding slot by Tmax.
	// Zero selects the default (2); negative disables the penalty.
	Ndupl int
	// MaxDoublings caps the per-attempt backoff doubling; past it the
	// backoff grows linearly at Tmin << MaxDoublings per attempt. Zero
	// selects the default (6). Reset clamps it so Tmin << MaxDoublings
	// stays within maxBackoff; the accumulated backoff saturates there.
	MaxDoublings int
	// DisableOverhearing restricts DFlood to pure unicast receptions
	// (used by the exact-optimum oracle tests).
	DisableOverhearing bool

	m        int // packets per run (w.M), fixed at Reset
	csr      *topology.CSR
	timer    rngutil.Stream
	assigned []bool
	attempts []int32 // attempts[s*m+p]: transmissions of p by s so far
	wait     []int64 // wait[s*m+p]: delay(s*m+p, attempts[s*m+p]), redrawn where attempts advances
	out      []sim.Intent
	supp     suppCounters

	// The fire calendar, indexed like attempts. key[i] is entry i's
	// calendar slot, keyIdle (not held, or parked) or keyReady; a calendar
	// event whose slot no longer equals key[i] is stale. counted[i] is
	// attempts[i]+1 once the current attempt was counted suppressed.
	// readyPkts[s] counts s's ready entries and readyNbr[r] the neighbours
	// of r with at least one.
	key       []int64
	counted   []int32
	cal       calendar
	readyPkts []int32
	readyNbr  []int32
	// work, when non-nil, tallies calendar pops and pairChoice calls for
	// white-box tests.
	work *dfloodWork
}

// Sentinel calendar keys (real keys are slots, never negative).
const (
	keyIdle  int64 = -1
	keyReady int64 = -2
)

// dfloodWork counts DFlood's calendar work.
type dfloodWork struct {
	pops, choices int64
}

// NewDFlood returns a DFlood instance with the exemplar's parameters
// (Tmin 5, Tmax 65, Ndupl 2).
func NewDFlood() *DFlood { return &DFlood{} }

// Name implements sim.Protocol.
func (d *DFlood) Name() string { return "DFlood" }

// Reset implements sim.Protocol.
func (d *DFlood) Reset(w *sim.World) {
	if d.Tmin <= 0 {
		d.Tmin = 5
	}
	if d.Tmax <= d.Tmin {
		d.Tmax = 65
		if d.Tmax <= d.Tmin {
			d.Tmax = d.Tmin + 60 // the exemplar's jitter span
		}
	}
	if d.Ndupl == 0 {
		d.Ndupl = 2
	}
	if d.MaxDoublings <= 0 {
		d.MaxDoublings = 6
	}
	d.MaxDoublings = min(d.MaxDoublings, max(0, bits.Len64(maxBackoff)-bits.Len64(uint64(d.Tmin))))
	// The holder count feeds the penalty, parking and, through its
	// journal, the calendar, so it is tracked even with the penalty off.
	w.TrackNeighborHolders()
	n := w.Graph.N()
	d.m = w.M
	d.csr = w.Graph.CSR()
	d.timer = *w.ProtoRNG.SubName("dflood.timer")
	d.assigned = make([]bool, n)
	d.attempts = make([]int32, n*w.M)
	d.wait = make([]int64, n*w.M)
	for i := range d.wait {
		d.wait[i] = d.delay(i, 0)
	}
	d.supp.reset(n)
	d.key = make([]int64, n*w.M)
	for i := range d.key {
		d.key[i] = keyIdle
	}
	d.counted = make([]int32, n*w.M)
	d.cal.reset()
	d.readyPkts = make([]int32, n)
	d.readyNbr = make([]int32, n)
}

// CollisionsApply implements sim.Protocol.
func (d *DFlood) CollisionsApply() bool { return true }

// Overhears implements sim.Protocol: overheard duplicates are what the
// suppression rule feeds on.
func (d *DFlood) Overhears() bool { return !d.DisableOverhearing }

// Instrument attaches telemetry: flood.messages counts emitted intents,
// flood.dflood.suppressed counts timers postponed by the duplicate
// penalty, once per (node, packet, attempt).
// Attaching never affects results (see docs/OBSERVABILITY.md).
func (d *DFlood) Instrument(reg *telemetry.Registry) {
	d.supp.instrument(reg, "flood.dflood.suppressed")
}

// FloodCounters returns the run's emitted-message and suppressed-timer
// totals.
func (d *DFlood) FloodCounters() (messages, suppressed int64) {
	return d.supp.messages, d.supp.suppressed
}

// SuppressedPerNode returns the per-node suppressed-timer counts. The
// slice is owned by the protocol; do not modify.
func (d *DFlood) SuppressedPerNode() []int64 { return d.supp.perNode }

// maxBackoff is where the accumulated backoff saturates: far beyond any
// simulated horizon, with headroom for the reception slot, Tmax and the
// duplicate penalty to be added without overflowing int64.
const maxBackoff = math.MaxInt64 >> 2

// backoff returns the deterministic backoff accumulated over a prior
// attempts: Tmin doubling per attempt, capped at Tmin << MaxDoublings,
// in closed form, saturating at maxBackoff.
func (d *DFlood) backoff(a int32) int64 {
	if a <= 0 {
		return 0
	}
	da := int64(a)
	cap64 := int64(d.MaxDoublings)
	if da <= cap64 {
		return d.Tmin * ((1 << da) - 1)
	}
	step := d.Tmin << cap64
	if da-cap64 > (maxBackoff-step)/step {
		return maxBackoff
	}
	return step - d.Tmin + (da-cap64)*step
}

// delay returns the forwarding delay of table entry i = s*m+p at attempt
// a: Tmin, plus the uniform jitter in [0, Tmax-Tmin) keyed by (i, a),
// plus the attempt backoff.
func (d *DFlood) delay(i int, a int32) int64 {
	u := d.timer.PairFloat64(uint64(i), uint64(a))
	return d.Tmin + int64(u*float64(d.Tmax-d.Tmin)) + d.backoff(a)
}

// fireSlots returns the base and penalized forwarding slots for packet p
// at node s: reception slot + the cached delay, and the same plus the
// duplicate penalty (one Tmax per neighboring holder at or past the Ndupl
// threshold, read from the world's neighbour-holder count). O(1) and
// pure; callers guarantee s holds p.
func (d *DFlood) fireSlots(w *sim.World, s, p int) (base, required int64) {
	base = w.RecvTime(p, s) + d.wait[s*d.m+p]
	required = base
	if d.Ndupl >= 0 {
		if holders := w.NeighborsHolding(p, s); holders >= d.Ndupl {
			required += int64(holders-d.Ndupl+1) * d.Tmax
		}
	}
	return base, required
}

// pairChoice returns what ready sender s offers receiver r this slot:
// among the packets s holds and r lacks whose timer is ready, the one
// with the smallest penalized forwarding slot (ties to the smaller packet
// index), with that slot; -1 when none is ready. The candidate packets
// are the set bits of the sender-holds, receiver-lacks word masks, walked
// in ascending order.
func (d *DFlood) pairChoice(w *sim.World, s, r int) (pkt int, required int64) {
	if d.work != nil {
		d.work.choices++
	}
	pkt = -1
	for i := 0; i < w.PacketWords(); i++ {
		for need := w.NeededWord(s, r, i); need != 0; need &= need - 1 {
			p := i<<6 + bits.TrailingZeros64(need)
			if d.key[s*d.m+p] != keyReady {
				continue
			}
			if _, req := d.fireSlots(w, s, p); pkt < 0 || req < required {
				pkt, required = p, req
			}
		}
	}
	return pkt, required
}

// prepareSlot brings the calendar up to the slot: it applies the
// possession changes since the previous visited slot, then pops every
// entry due by now and evaluates it. An entry re-armed at a base slot
// that has passed is due at once. Afterwards an entry is ready exactly
// when its node holds the packet, some neighbour lacks it and its
// penalized forwarding slot has passed — the entries a full scan of every
// receiver's neighbours would offer.
func (d *DFlood) prepareSlot(w *sim.World) {
	now := w.Now()
	for _, c := range w.TakeHolderChanges() {
		d.holderChanged(w, int(c.Node), int(c.Packet), c.Delta, now)
	}
	for d.cal.due(now) {
		e := d.cal.pop()
		if d.work != nil {
			d.work.pops++
		}
		if i := int(e.entry); d.key[i] == e.at {
			d.key[i] = keyIdle
			d.evaluate(w, i, now)
		}
	}
}

// holderChanged applies one journaled possession change of packet p at
// node v. v's own timer restarts (a new copy) or ends (a dropped one).
// Each neighbour holding p saw its holder count move: a ready one is
// evaluated again on a rise, and any other is re-armed on a fall, which
// may lower its penalized slot below its calendar key. The handling reads
// the current world, not the change, so a journal that holds several
// changes of one (node, packet) converges on the same state.
func (d *DFlood) holderChanged(w *sim.World, v, p int, delta int32, now int64) {
	if i := v*d.m + p; w.Has(p, v) {
		d.arm(w, i)
	} else {
		d.stop(i)
	}
	row, _ := d.csr.Row(v)
	for _, s32 := range row {
		s := int(s32)
		if !w.Has(p, s) {
			continue
		}
		j := s*d.m + p
		if d.key[j] == keyReady {
			if delta > 0 {
				d.evaluate(w, j, now)
			}
		} else if delta < 0 {
			d.arm(w, j)
		}
	}
}

// evaluate decides the state of held entry i at slot now: parked when
// every neighbour holds the packet, back on the calendar at its penalized
// slot when the penalty still postpones it, ready otherwise. A postponed
// timer whose base slot has passed is counted suppressed, once per
// attempt. Every key lies at or after its entry's base slot, and a
// popped key at or before now; a ready entry's penalized slot has passed.
// Either way the base slot has passed here.
func (d *DFlood) evaluate(w *sim.World, i int, now int64) {
	s, p := i/d.m, i%d.m
	base, req := d.fireSlots(w, s, p)
	if base <= now && req > now && d.counted[i] != d.attempts[i]+1 {
		d.counted[i] = d.attempts[i] + 1
		d.supp.count(int32(s))
	}
	switch {
	case w.NeighborsHolding(p, s) == d.csr.Degree(s):
		d.stop(i)
	case req > now:
		d.schedule(i, req)
	default:
		d.setReady(i)
	}
}

// arm (re)schedules held entry i from scratch: at its base slot while the
// current attempt has not been counted suppressed, so the count happens
// at the first visited slot the timer is due, and at its penalized slot
// after.
func (d *DFlood) arm(w *sim.World, i int) {
	base, req := d.fireSlots(w, i/d.m, i%d.m)
	if d.counted[i] == d.attempts[i]+1 {
		base = req
	}
	d.schedule(i, base)
}

// schedule moves entry i onto the calendar at slot at, out of the ready
// set; a pending event at the same slot is kept, so no duplicate is
// pushed.
func (d *DFlood) schedule(i int, at int64) {
	if d.key[i] == at {
		return
	}
	d.stop(i)
	d.key[i] = at
	d.cal.push(calEvent{at: at, entry: int32(i)})
}

// setReady adds entry i to the ready set, updating the ready counts of
// its node and, when the node's first entry turns ready, its neighbours.
func (d *DFlood) setReady(i int) {
	if d.key[i] == keyReady {
		return
	}
	d.key[i] = keyReady
	s := i / d.m
	if d.readyPkts[s]++; d.readyPkts[s] == 1 {
		row, _ := d.csr.Row(s)
		for _, r := range row {
			d.readyNbr[r]++
		}
	}
}

// stop makes entry i idle, taking it out of the ready set if it was
// there; a pending calendar event goes stale.
func (d *DFlood) stop(i int) {
	if d.key[i] == keyReady {
		s := i / d.m
		if d.readyPkts[s]--; d.readyPkts[s] == 0 {
			row, _ := d.csr.Row(s)
			for _, r := range row {
				d.readyNbr[r]--
			}
		}
	}
	d.key[i] = keyIdle
}

// calEvent is one fire-calendar event: entry is due for a look at slot at.
type calEvent struct {
	at    int64
	entry int32
}

// calendar is a monotone radix heap of events by slot. last is the slot
// most recently moved to the front. Bucket 0 holds the events at or before
// last, all of them due; bucket b > 0 holds the events after last whose
// slot first differs from last in bit b-1, so every event in bucket b
// comes before every event in a higher bucket. A push is O(1), and an
// event keyed at or before last (an arm re-keyed to a base slot that has
// passed) goes straight to bucket 0. min[b] is bucket b's earliest slot
// (math.MaxInt64 while it is empty) and occupied has bit b set while
// bucket b > 0 holds events, so the calendar's minimum is cached: a slot
// with nothing due costs O(1). When the minimum falls due, due moves the
// first non-empty bucket down to it as the new last; each event moves
// down at most once per bit, and last never passes the current slot.
// Events in bucket 0 pop in no particular order; evaluating them is
// order-independent. reset readies a calendar for use.
type calendar struct {
	last     int64
	occupied uint64
	min      [64]int64
	buckets  [64][]calEvent
}

// reset empties the calendar, keeping the buckets' storage.
func (c *calendar) reset() {
	for b := range c.buckets {
		c.buckets[b] = c.buckets[b][:0]
		c.min[b] = math.MaxInt64
	}
	c.last, c.occupied = 0, 0
}

// push adds an event. Slots are never negative, so bit 63 never differs
// and bucket 63 is the last one used.
func (c *calendar) push(e calEvent) {
	if e.at <= c.last {
		c.buckets[0] = append(c.buckets[0], e)
		return
	}
	b := bits.Len64(uint64(e.at ^ c.last))
	c.occupied |= 1 << b
	c.min[b] = min(c.min[b], e.at)
	c.buckets[b] = append(c.buckets[b], e)
}

// due reports whether an event at or before now is in the calendar,
// leaving bucket 0 non-empty when one is. Calls must not decrease now.
func (c *calendar) due(now int64) bool {
	if len(c.buckets[0]) > 0 {
		return true
	}
	if c.occupied == 0 {
		return false
	}
	b := bits.TrailingZeros64(c.occupied)
	if c.min[b] > now {
		return false
	}
	c.last = c.min[b]
	c.occupied &^= 1 << b
	events := c.buckets[b]
	for _, e := range events {
		// Every event here is at or after the new last, so its bucket is
		// the bit length alone: 0 for the events at last.
		k := bits.Len64(uint64(e.at ^ c.last))
		c.occupied |= 1 << k
		c.min[k] = min(c.min[k], e.at)
		c.buckets[k] = append(c.buckets[k], e)
	}
	c.occupied &^= 1
	c.min[b] = math.MaxInt64
	c.buckets[b] = events[:0]
	return true
}

// pop removes and returns an event from bucket 0; due must have reported
// one.
func (c *calendar) pop() calEvent {
	b0 := c.buckets[0]
	e := b0[len(b0)-1]
	c.buckets[0] = b0[:len(b0)-1]
	return e
}

// Intents implements sim.Protocol: it brings the calendar up to the slot
// (prepareSlot), then per frontier receiver (sim.World.Frontier) with a
// ready neighbour, in ascending order, the free, undeferred ready neighbor
// with the earliest penalized forwarding slot (ties to the first in row
// order) transmits its chosen packet (serve), and finally the chosen
// timers advance (commit).
func (d *DFlood) Intents(w *sim.World) []sim.Intent {
	d.prepareSlot(w)
	slot := w.ProtoStream()
	out := d.out[:0]
	for _, r := range w.Frontier() {
		// A ready neighbour holds a packet, so this is the stronger
		// filter; it also saves the out-of-line call.
		if d.readyNbr[r] == 0 {
			continue
		}
		if in, ok := d.serve(w, r, &slot); ok {
			d.assigned[in.From] = true
			out = append(out, in)
		}
	}
	d.commit(w, out)
	d.out = out
	return out
}

// serve returns the intent that serves receiver r this slot, if any:
// among r's unassigned neighbours with a ready timer for a packet r lacks
// (pairChoice), the one with the smallest penalized forwarding slot, ties
// to the first in row order, that does not defer. It reads the calendar
// and timers only.
func (d *DFlood) serve(w *sim.World, r int, slot *rngutil.Stream) (in sim.Intent, ok bool) {
	var best int64
	row, prrs := d.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if d.readyPkts[s] == 0 || d.assigned[s] {
			continue
		}
		pkt, req := d.pairChoice(w, s, r)
		if pkt < 0 || (ok && req >= best) || deferKeyed(w, s, slot) {
			continue
		}
		in, ok, best = sim.Intent{From: s, To: r, Packet: pkt, PRR: prrs[i]}, true, req
	}
	return in, ok
}

// commit applies the slot's chosen timers in emission order: each
// sender's attempt counter for its packet advances, its cached delay is
// redrawn for the new attempt and its timer goes back on the calendar.
// It also releases the senders.
func (d *DFlood) commit(w *sim.World, out []sim.Intent) {
	for _, in := range out {
		d.assigned[in.From] = false
		i := in.From*d.m + in.Packet
		d.attempts[i]++
		d.wait[i] = d.delay(i, d.attempts[i])
		d.arm(w, i)
		d.supp.message()
	}
}
