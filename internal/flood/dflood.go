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
// engine. Penalty-blocked firings are tallied per node (FloodCounters,
// flood.dflood.suppressed).
//
// Like Trickle, every timing quantity is a pure function of the pre-slot
// world state and a keyed stream captured at Reset (jitter is keyed by
// (node, packet, attempt)); the attempt counters advance only at emit
// time in the serial selection pass, which is also where the cached
// per-(node, packet) delay is redrawn. The duplicate count comes from the
// engine's opt-in neighbour-holder count (sim.World.TrackNeighborHolders,
// turned on at Reset unless the penalty is disabled), so every
// forwarding-slot query is O(1). The schedule is bit-identical across
// worker counts and unaffected by the slots the engine skips.
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
	sel      selScratch
	supp     suppCounters
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
	if d.Ndupl >= 0 {
		w.TrackNeighborHolders()
	}
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
}

// CollisionsApply implements sim.Protocol.
func (d *DFlood) CollisionsApply() bool { return true }

// Overhears implements sim.Protocol: overheard duplicates are what the
// suppression rule feeds on.
func (d *DFlood) Overhears() bool { return !d.DisableOverhearing }

// Instrument attaches telemetry: flood.messages counts emitted intents,
// flood.dflood.suppressed counts duplicate-penalty-blocked firings.
// Attaching never affects results (see docs/OBSERVABILITY.md).
func (d *DFlood) Instrument(reg *telemetry.Registry) {
	d.supp.instrument(reg, "flood.dflood.suppressed")
}

// FloodCounters returns the run's emitted-message and suppressed-firing
// totals.
func (d *DFlood) FloodCounters() (messages, suppressed int64) {
	return d.supp.messages, d.supp.suppressed
}

// SuppressedPerNode returns the per-node suppressed-firing counts. The
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

// pairChoice evaluates what sender s offers receiver r this slot: among
// the packets s holds and r lacks whose base forwarding slot has passed,
// the one with the smallest penalized slot (ties to the smaller packet
// index) if that slot has passed too — otherwise the pair is
// duplicate-blocked. The candidate packets are the set bits of the
// sender-holds, receiver-lacks word masks, walked in ascending order. It
// returns the packet (-1 when nothing is due), the penalized slot of the
// choice, and whether the pair is blocked.
func (d *DFlood) pairChoice(w *sim.World, s, r int, now int64) (pkt int, required int64, blocked bool) {
	pkt = -1
	blockedPkt := -1
	for i := 0; i < w.PacketWords(); i++ {
		for need := w.NeededWord(s, r, i); need != 0; need &= need - 1 {
			p := i<<6 + bits.TrailingZeros64(need)
			base, req := d.fireSlots(w, s, p)
			if now < base {
				continue // not yet due at all
			}
			if now < req {
				if blockedPkt < 0 {
					blockedPkt = p
				}
				continue // due, but duplicate-penalty-blocked
			}
			if pkt < 0 || req < required {
				pkt, required = p, req
			}
		}
	}
	if pkt < 0 && blockedPkt >= 0 {
		return blockedPkt, 0, true
	}
	return pkt, required, false
}

// Intents implements sim.Protocol through the planner (sim.PlanIntents):
// for each awake receiver, the due neighbor with the earliest forwarding
// slot (ties to the first in row order) transmits its chosen packet;
// duplicate-blocked pairs are tallied but stay silent.
func (d *DFlood) Intents(w *sim.World) []sim.Intent { return sim.PlanIntents(w, d) }
