package flood

import (
	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

// Trickle adapts the Trickle algorithm (Levis et al., NSDI'04; RFC 6206)
// to the engine's receiver-initiated slot model. Each node runs an
// interval-doubling timer: receiving a new packet resets its interval to
// Imin, and each interval thereafter doubles up to Imin << MaxDoublings.
// Within the current interval [start, start+I) the node picks one fire
// point uniformly in the second half [start+I/2, start+I) and its timer is
// armed from that slot to the end of the interval — Trickle's
// listen-then-maybe-talk discipline, adapted to duty cycling: the engine
// is receiver-initiated, so a transmission happens only when a needy
// receiver is awake, and a single-slot fire point would almost never
// coincide with any receiver's rare awake slot at low duty cycles.
// A firing is suppressed when at least
// K consistent neighbors (identical packet buffers) fired earlier within
// the node's current listening window, the redundancy-constant rule that
// gives Trickle its bounded per-node message rate; suppressed firings are
// tallied per node (FloodCounters, flood.trickle.suppressed).
//
// Every timer quantity is a pure function of the pre-slot world state and
// a keyed RNG stream captured at Reset: fire points are keyed by (node,
// interval start), so they are unaffected by the slots the engine skips.
// A receiver scans its row only when some neighbour holds a packet it
// lacks, read off the engine's neighbour-holder count
// (sim.World.TrackNeighborHolders, turned on at Reset).
type Trickle struct {
	// Imin is the smallest Trickle interval in slots. Zero selects the
	// default (16).
	Imin int64
	// MaxDoublings bounds the interval at Imin << MaxDoublings. Zero
	// selects the default (6, i.e. Imax = 64*Imin). Keeping Imax modest
	// matters under low duty cycles: a fire point is only useful when a
	// needy receiver is awake at it, so steady-state retry latency is
	// roughly Imax divided by the duty cycle.
	MaxDoublings int
	// K is the redundancy constant: a firing with at least K consistent
	// earlier transmissions in its listening window is suppressed. Zero
	// selects the default (2); negative disables suppression.
	K int
	// DisableOverhearing restricts Trickle to pure unicast receptions
	// (used by the exact-optimum oracle tests, whose bound counts unicast
	// receptions only).
	DisableOverhearing bool

	imax     int64
	csr      *topology.CSR
	timer    rngutil.Stream
	assigned []bool
	out      []sim.Intent
	supp     suppCounters
}

// NewTrickle returns a Trickle instance with the default parameters
// (Imin 16, MaxDoublings 6, K 2).
func NewTrickle() *Trickle { return &Trickle{} }

// Name implements sim.Protocol.
func (t *Trickle) Name() string { return "Trickle" }

// Reset implements sim.Protocol. It derives the keyed timer stream from
// the protocol RNG, so fire points are identical on every engine path.
func (t *Trickle) Reset(w *sim.World) {
	if t.Imin <= 0 {
		t.Imin = 16
	}
	if t.MaxDoublings <= 0 {
		t.MaxDoublings = 6
	}
	if t.K == 0 {
		t.K = 2
	}
	t.imax = t.Imin << t.MaxDoublings
	t.csr = w.Graph.CSR()
	t.timer = *w.ProtoRNG.SubName("trickle.timer")
	t.assigned = make([]bool, w.Graph.N())
	t.supp.reset(w.Graph.N())
	w.TrackNeighborHolders()
}

// CollisionsApply implements sim.Protocol: Trickle is a practical
// protocol; concurrent transmissions in range collide.
func (t *Trickle) CollisionsApply() bool { return true }

// Overhears implements sim.Protocol: suppression protocols thrive on
// promiscuous reception.
func (t *Trickle) Overhears() bool { return !t.DisableOverhearing }

// Instrument attaches telemetry: flood.messages counts emitted intents,
// flood.trickle.suppressed counts suppressed firings. Attaching never
// affects results (see docs/OBSERVABILITY.md).
func (t *Trickle) Instrument(reg *telemetry.Registry) {
	t.supp.instrument(reg, "flood.trickle.suppressed")
}

// FloodCounters returns the run's emitted-message and suppressed-firing
// totals.
func (t *Trickle) FloodCounters() (messages, suppressed int64) {
	return t.supp.messages, t.supp.suppressed
}

// SuppressedPerNode returns the per-node suppressed-firing counts. The
// slice is owned by the protocol; do not modify.
func (t *Trickle) SuppressedPerNode() []int64 { return t.supp.perNode }

// lastResetOf returns node s's most recent interval reset: the latest slot
// at which it received any packet (injection included). Callers guarantee
// s holds at least one packet, so the result is non-negative.
func lastResetOf(w *sim.World, s int) int64 {
	lr := int64(-1)
	for p := 0; p < w.Injected(); p++ {
		if rt := w.RecvTime(p, s); rt > lr {
			lr = rt
		}
	}
	if lr < 0 {
		lr = 0
	}
	return lr
}

// intervalAt returns the start and length of the current Trickle interval
// at slot now for a node whose last reset was lastReset: doubling from
// Imin until the interval caps at imax, then arithmetic in one jump.
func (t *Trickle) intervalAt(lastReset, now int64) (start, length int64) {
	start, length = lastReset, t.Imin
	for start+length <= now && length < t.imax {
		start += length
		length <<= 1
	}
	if start+length <= now {
		start += (now - start) / length * length
	}
	return start, length
}

// firePoint returns node s's fire point in the interval [start,
// start+length): uniform over the second half, keyed purely by (node,
// interval start).
func (t *Trickle) firePoint(s int, start, length int64) int64 {
	half := length / 2
	u := t.timer.PairFloat64(uint64(s), uint64(start))
	return start + half + int64(u*float64(length-half))
}

// suppressedAt reports whether node s's firing this slot is suppressed:
// at least K consistent neighbors (identical buffers — neither side holds
// anything the other lacks) have fire points inside s's listening window
// [startS, now). Pure world-state + keyed-stream computation; w.Now() is
// inside s's armed window [fire point, interval end) when this is
// evaluated.
func (t *Trickle) suppressedAt(w *sim.World, s int, startS int64) bool {
	if t.K < 0 {
		return false
	}
	now := w.Now()
	c := 0
	row, _ := t.csr.Row(s)
	for _, n32 := range row {
		n := int(n32)
		if w.AnyNeeded(s, n) || w.AnyNeeded(n, s) {
			continue // inconsistent neighbor: its transmissions don't count
		}
		ns, nl := t.intervalAt(lastResetOf(w, n), now)
		if tau := t.firePoint(n, ns, nl); tau >= startS && tau < now {
			c++
			if c >= t.K {
				return true
			}
		}
	}
	return false
}

// Intents implements sim.Protocol: per awake receiver in ascending order,
// the first unassigned neighbor in row order whose Trickle timer is armed
// this slot, is not suppressed, and does not defer transmits its FCFS
// packet (serve).
func (t *Trickle) Intents(w *sim.World) []sim.Intent {
	slot := w.ProtoStream()
	out := t.out[:0]
	for _, r := range w.AwakeList() {
		if in, ok := t.serve(w, r, &slot); ok {
			t.assigned[in.From] = true
			t.supp.message()
			out = append(out, in)
		}
	}
	release(t.assigned, out)
	t.supp.endSlot()
	t.out = out
	return out
}

// serve returns the intent that serves receiver r this slot, if any: the
// first neighbor in row order holding a packet r needs whose timer is
// armed (fire point passed within the current interval), whose firing is
// not suppressed, that is unassigned and does not defer. Every armed
// neighbor whose firing is suppressed is tallied, once per sender per
// slot. Timer state is pure (keyed stream captured at Reset). A receiver
// none of whose neighbours holds a packet it lacks returns at once, read
// off the neighbour-holder count: the row scan would find no armed
// neighbor and draw nothing.
func (t *Trickle) serve(w *sim.World, r int, slot *rngutil.Stream) (in sim.Intent, ok bool) {
	if !w.NeighborHoldsNeeded(r) {
		return in, false
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
		if t.suppressedAt(w, s, start) {
			t.supp.note(s32)
			continue
		}
		if ok || t.assigned[s] || deferKeyed(w, s, slot) {
			continue
		}
		in, ok = sim.Intent{From: s, To: r, Packet: sim.PacketFCFS, PRR: prrs[i]}, true
	}
	return in, ok
}
