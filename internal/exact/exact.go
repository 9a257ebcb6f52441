// Package exact computes provably optimal multi-packet flooding schedules
// for small networks by breadth-first search over the full dissemination
// state space. It is the ground truth the paper's limits can be checked
// against: for any (N, M) small enough to enumerate, OptimalSlots returns
// the true minimum number of compact slots needed to flood M packets to
// all 1+N nodes under the matrix model of Section IV (every node transmits
// at most one packet and receives at most one packet per slot; the source
// injects packet p at the beginning of slot p).
//
// The search is exponential in N·M — it exists to validate Lemma 2,
// Table I and Algorithm 1 on small instances, not to schedule real
// networks.
package exact

import "fmt"

// Config bounds the instance. The state space is 2^((N+1)·M), so N·M must
// stay small (the package enforces (N+1)·M <= 24 by default).
type Config struct {
	// N is the number of nominal sensors (nodes 1..N; node 0 is the source).
	N int
	// M is the number of packets.
	M int
	// MaxStateBits overrides the (N+1)*M <= 24 safety bound when set.
	MaxStateBits int
}

// Result reports the optimum.
type Result struct {
	// Slots is the minimum number of compact slots to complete all packets.
	Slots int
	// Explored counts distinct states visited (diagnostics).
	Explored int
}

// state packs possession bitmaps: bit (p*(N+1) + node) set means node holds
// packet p.
type state uint64

// OptimalSlots runs the breadth-first search and returns the minimum
// completion time.
func OptimalSlots(cfg Config) (Result, error) {
	if cfg.N < 1 {
		return Result{}, fmt.Errorf("exact: N = %d must be >= 1", cfg.N)
	}
	if cfg.M < 1 {
		return Result{}, fmt.Errorf("exact: M = %d must be >= 1", cfg.M)
	}
	nodes := cfg.N + 1
	stateBits := nodes * cfg.M
	maxBits := cfg.MaxStateBits
	if maxBits == 0 {
		maxBits = 24
	}
	if stateBits > maxBits {
		return Result{}, fmt.Errorf("exact: state space 2^%d exceeds bound 2^%d", stateBits, maxBits)
	}

	full := state(0)
	for p := 0; p < cfg.M; p++ {
		for node := 0; node < nodes; node++ {
			full |= bit(p, node, nodes)
		}
	}
	canon := canonicalizer(nodes, cfg.M)

	// Breadth-first layers over (state, slot); injections depend on the slot
	// number, so the frontier is advanced slot by slot.
	type key struct {
		s    state
		slot int
	}
	start := state(0)
	visited := map[key]bool{}
	frontier := []state{start}
	explored := 0
	// An upper bound on useful depth: Algorithm 1's Table I bound plus
	// injection time, padded.
	maxDepth := 4*(cfg.M+cfg.N+4) + 16
	// next, seen and succBuf are reused across breadth-first layers (cleared,
	// not reallocated) — the per-layer map churn dominated the profile.
	next := make(map[state]bool)
	seen := make(map[state]bool)
	var succBuf []state
	for slot := 0; slot <= maxDepth; slot++ {
		clear(next)
		for _, s := range frontier {
			// Inject packet `slot` at the source.
			if slot < cfg.M {
				s |= bit(slot, 0, nodes)
			}
			if s == full {
				return Result{Slots: slot, Explored: explored}, nil
			}
			k := key{s, slot}
			if visited[k] {
				continue
			}
			visited[k] = true
			explored++
			succBuf = appendSuccessors(succBuf[:0], seen, s, nodes, cfg.M)
			for _, succ := range succBuf {
				next[canon(succ)] = true
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = frontier[:0]
		for s := range next {
			frontier = append(frontier, s)
		}
	}
	return Result{Explored: explored}, fmt.Errorf("exact: no completion within %d slots", maxDepth)
}

func bit(p, node, nodes int) state {
	return state(1) << uint(p*nodes+node)
}

// canonicalizer returns a function mapping a state to its canonical
// representative under sensor relabeling: the nominal sensors 1..N are
// interchangeable (the complete-graph matrix model has no topology), so
// their per-node possession masks are sorted. This collapses the state
// space from 2^(nodes·M) to multisets and is what makes the multi-packet
// search tractable.
func canonicalizer(nodes, m int) func(state) state {
	masks := make([]uint32, nodes-1)
	return func(s state) state {
		for node := 1; node < nodes; node++ {
			var mask uint32
			for p := 0; p < m; p++ {
				if s&bit(p, node, nodes) != 0 {
					mask |= 1 << uint(p)
				}
			}
			masks[node-1] = mask
		}
		// Insertion sort, descending: tiny slices.
		for i := 1; i < len(masks); i++ {
			for j := i; j > 0 && masks[j] > masks[j-1]; j-- {
				masks[j], masks[j-1] = masks[j-1], masks[j]
			}
		}
		out := s
		for node := 1; node < nodes; node++ {
			for p := 0; p < m; p++ {
				b := bit(p, node, nodes)
				if masks[node-1]&(1<<uint(p)) != 0 {
					out |= b
				} else {
					out &^= b
				}
			}
		}
		return out
	}
}

// appendSuccessors appends to dst every reachable next state: a set of
// transmissions where each sender sends one held packet to one node that
// lacks it, with every node transmitting at most once and receiving at most
// once. To keep the branching factor manageable the enumeration is a
// recursive assignment over senders (each sender idles or picks a
// packet+receiver), deduplicated by the resulting state. seen is caller
// scratch (cleared here) so the hot search loop allocates nothing per call.
func appendSuccessors(dst []state, seen map[state]bool, s state, nodes, m int) []state {
	clear(seen)
	var rec func(sender int, cur state, rxBusy, txBusy uint32)
	rec = func(sender int, cur state, rxBusy, txBusy uint32) {
		if sender == nodes {
			seen[cur] = true
			return
		}
		// Option 1: sender idles.
		rec(sender+1, cur, rxBusy, txBusy)
		if txBusy&(1<<uint(sender)) != 0 {
			return
		}
		// Option 2: sender transmits one of its packets to one receiver.
		for p := 0; p < m; p++ {
			if s&bit(p, sender, nodes) == 0 {
				continue
			}
			for r := 0; r < nodes; r++ {
				if r == sender || rxBusy&(1<<uint(r)) != 0 {
					continue
				}
				if s&bit(p, r, nodes) != 0 {
					continue // receiver already holds p
				}
				rec(sender+1, cur|bit(p, r, nodes), rxBusy|1<<uint(r), txBusy|1<<uint(sender))
			}
		}
	}
	rec(0, s, 0, 0)
	for st := range seen {
		dst = append(dst, st)
	}
	return dst
}
