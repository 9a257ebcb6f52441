package flood

// The keyed draws every protocol in the package decides with. Each
// protocol's Intents is one ascending pass over World.AwakeList that
// decides each receiver right after scanning its row, drawing from
// World.ProtoStream, the slot's keyed protocol stream. Every draw is keyed
// by (slot, node), so it is a pure function of (seed, slot, pre-slot world
// state): a draw skipped by an earlier test — OPT's and DBAO's walks stop
// early, OF draws only for free candidates — moves no other, and no
// receiver's draws depend on the receivers decided before it. The one
// cross-receiver state is contention: a sender serves one receiver per
// slot (the assigned flags), and OF's density divisor counts the senders
// still free.
//
// Keying scheme (all under the slot's protocol stream, which the engine
// derives at sim's protoStreamKey — disjoint from the engine's own node
// keys):
//
//   - defer-to-reception: PairFloat64(sender, deferTag). One decision per
//     sender per slot, shared by every receiver that sees the sender as a
//     candidate.
//   - per-pair fire draws (DBAO/Naive hidden terminals, OF opportunistic
//     forwarding): PairFloat64(receiver, sender). OF draws a receiver's
//     candidates through PairRow(receiver).Float64(sender), the same
//     values with the receiver's key mixed once. Receiver != sender on
//     every link and deferTag exceeds any node id, so the two key
//     families never collide.
//
// Uniforms are compared as U < p, so the degenerate probabilities are
// exact: p <= 0 never fires and p >= 1 always fires (U < 1 by
// construction) — the deterministic subspace the hand-derived tests in
// oracle_test.go pin.

import (
	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
)

// deferProb is the defer-to-reception probability shared by every protocol
// (see deferKeyed). A package variable so tests can zero it and land in the
// protocols' deterministic subspace.
var deferProb = 0.25

// deferTag keys the per-sender defer decision under the slot's protocol
// stream. It must exceed every node id so PairFloat64(sender, deferTag)
// never collides with a PairFloat64(receiver, sender) pair draw.
const deferTag uint64 = 1 << 62

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

// release clears the assigned flag of every sender of the slot's intents:
// a sparse reset, proportional to the slot's transmissions.
func release(assigned []bool, out []sim.Intent) {
	for _, in := range out {
		assigned[in.From] = false
	}
}

// firstFree returns the index in r's rank row of the first neighbor that
// is unassigned this slot, holds a packet r needs and does not defer: the
// best-ranked free holder (highest PRR, lowest node id among ties). It
// returns -1 when there is none. The cheap tests run before the keyed
// defer draw.
func firstFree(w *sim.World, assigned []bool, row []int32, r int, slot *rngutil.Stream) int {
	for i, s32 := range row {
		s := int(s32)
		if !assigned[s] && w.AnyNeeded(s, r) && !deferKeyed(w, s, slot) {
			return i
		}
	}
	return -1
}
