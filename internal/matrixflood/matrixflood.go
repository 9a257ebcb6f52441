// Package matrixflood implements the paper's Algorithm 1: the matrix-based
// multi-packet flooding algorithm that achieves the Flooding Waiting Limit
// on the compact time scale, together with the half-duplex "type-2 slot"
// modification of Section IV-A2 and the ablation variants called out in
// DESIGN.md (expiry rule on/off, most-recent-first vs FIFO packet choice).
//
// The model is exactly the paper's: 1+N nodes (node 0 is the source, which
// injects packet p = c at the beginning of compact slot c while p < M), and
// in slot c every node i in 0..N-1 holding a transmittable packet f(i, c)
// sends it to node (2^(c mod n) + i) mod N, with a result of 0 mapped to
// node N. Dissemination state is the X/S matrix evolution of Eq. (2).
package matrixflood

import (
	"fmt"

	"ldcflood/internal/analysis"
)

// Policy selects which transmittable packet a node forwards.
type Policy int

const (
	// MostRecentFirst transmits the most recently received non-expired
	// packet — the strategy Algorithm 1 specifies ("we propose to transmit
	// the most recently received non-expired packet first").
	MostRecentFirst Policy = iota
	// FIFOPacket transmits the oldest non-expired packet instead; used by
	// the packet-choice ablation.
	FIFOPacket
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case MostRecentFirst:
		return "most-recent-first"
	case FIFOPacket:
		return "fifo"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes a run of Algorithm 1.
type Config struct {
	// N is the number of nominal sensors (nodes 1..N); the source is node 0.
	N int
	// M is the number of packets the source injects (packet p at slot p).
	M int
	// Policy selects the packet-choice rule (default MostRecentFirst).
	Policy Policy
	// DisableExpiry turns off the expired-time rule (ablation): nodes then
	// keep forwarding old packets forever, crowding out new ones.
	DisableExpiry bool
	// MaxSlots bounds the run; 0 means an adequate default derived from
	// the Table I bound (with generous slack for ablation runs).
	MaxSlots int
}

// Result captures the outcome of a run.
type Result struct {
	// CompletionSlot[p] is the compact slot at whose beginning packet p is
	// possessed by all 1+N nodes, or -1 if it never completed.
	CompletionSlot []int
	// Waitings[p] = CompletionSlot[p] - p: the compact-time waitings packet
	// p experienced (its Kp + Wp share minus its injection slot Kp = p).
	Waitings []int
	// TotalSlots is the compact slot at which the last packet completed.
	TotalSlots int
	// Type2Slots counts slots in which at least one node both transmitted
	// and received — the slots that must be split in half-duplex networks
	// (Section IV-A2), each costing twice the duration.
	Type2Slots int
	// HalfDuplexSlots = TotalSlots + Type2Slots: the compact duration after
	// the half-duplex modification doubles every type-2 slot.
	HalfDuplexSlots int
	// Transmissions is the total number of transmissions performed.
	Transmissions int
	// DuplicateReceptions counts receptions of packets already held.
	DuplicateReceptions int
	// Completed reports whether every packet reached every node.
	Completed bool
}

// state is the per-run dissemination state.
type state struct {
	cfg      Config
	n        int      // sensors
	total    int      // 1 + N
	hopBits  int      // n in the target rule: log2 window of the doubling offsets
	has      [][]bool // has[p][node]
	recvSlot [][]int  // recvSlot[p][node]: compact slot of first reception, -1 if none
	remain   []int    // remain[p]: nodes still missing packet p
}

// IsPowerOfTwo reports whether n is a positive power of two — the paper's
// Assumption II, required by Algorithm 1's doubling target rule.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// Run executes Algorithm 1 and returns its Result. N must be a power of two
// (Assumption II), the only regime for which the paper gives the
// algorithm. Run returns an error for invalid configuration or if the run
// exceeds MaxSlots without completing (which indicates either an
// ablation-induced livelock or too small a cap).
func Run(cfg Config) (Result, error) { return run(cfg, nil) }

// run is Run with an optional snapshot hook, called with the possession
// matrix has[p][node] at the beginning of every compact slot, after the
// slot's injection, and once more after the last slot run. The matrix is
// the live state: the hook must copy what it keeps.
func run(cfg Config, snapshot func(has [][]bool)) (Result, error) {
	if cfg.N < 1 {
		return Result{}, fmt.Errorf("matrixflood: N = %d must be >= 1", cfg.N)
	}
	if !IsPowerOfTwo(cfg.N) {
		return Result{}, fmt.Errorf("matrixflood: Algorithm 1 requires N = 2^n (got %d)", cfg.N)
	}
	if cfg.M < 1 {
		return Result{}, fmt.Errorf("matrixflood: M = %d must be >= 1", cfg.M)
	}
	if cfg.Policy != MostRecentFirst && cfg.Policy != FIFOPacket {
		return Result{}, fmt.Errorf("matrixflood: unknown policy %d", int(cfg.Policy))
	}
	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		// Table I bound: the last packet completes by 2M + 2m compact
		// slots; leave slack for the FIFO policy ablation.
		maxSlots = 8 * (cfg.M + analysis.FWLFloor(cfg.N) + 4)
	}

	st := newState(cfg)
	res := Result{
		CompletionSlot: make([]int, cfg.M),
		Waitings:       make([]int, cfg.M),
	}
	for p := range res.CompletionSlot {
		res.CompletionSlot[p] = -1
		res.Waitings[p] = -1
	}

	done := 0
	type tx struct {
		from, to, packet int
	}
	// txs and transmitted are reused across slots: the per-slot map/slice
	// churn showed up in the schedule-length sweeps.
	var txs []tx
	transmitted := make([]bool, st.n+1) // target may name node N (index n)
	for c := 0; c < maxSlots && done < cfg.M; c++ {
		// Line 2-4: inject packet p = c at the source.
		if c < cfg.M {
			st.deliver(c, 0, c)
		}
		if snapshot != nil {
			snapshot(st.has)
		}
		txs = txs[:0]
		// Lines 5-9: each node 0..N-1 transmits f(i, c).
		for i := 0; i < st.n; i++ {
			pkt := st.choosePacket(i, c)
			if pkt < 0 {
				continue
			}
			to := st.target(i, c)
			if to == i {
				continue // degenerate offset on non-power-of-two N
			}
			txs = append(txs, tx{from: i, to: to, packet: pkt})
		}
		// Detect type-2 slots: a node that both transmits and receives.
		for _, t := range txs {
			transmitted[t.from] = true
		}
		type2 := false
		for _, t := range txs {
			if transmitted[t.to] {
				type2 = true
				break
			}
		}
		for _, t := range txs {
			transmitted[t.from] = false
		}
		if type2 {
			res.Type2Slots++
		}
		// Apply all receptions simultaneously (end of slot c → usable at c+1).
		for _, t := range txs {
			res.Transmissions++
			if st.has[t.packet][t.to] {
				res.DuplicateReceptions++
				continue
			}
			st.deliver(t.packet, t.to, c)
		}
		// Record completions: packets with no missing nodes are complete at
		// the beginning of slot c+1.
		for p := 0; p < cfg.M; p++ {
			if res.CompletionSlot[p] == -1 && p <= c && st.remain[p] == 0 {
				res.CompletionSlot[p] = c + 1
				res.Waitings[p] = c + 1 - p
				done++
				if c+1 > res.TotalSlots {
					res.TotalSlots = c + 1
				}
			}
		}
	}
	if snapshot != nil {
		snapshot(st.has)
	}
	res.Completed = done == cfg.M
	res.HalfDuplexSlots = res.TotalSlots + res.Type2Slots
	if !res.Completed {
		return res, fmt.Errorf("matrixflood: %d/%d packets incomplete after %d slots", cfg.M-done, cfg.M, maxSlots)
	}
	return res, nil
}

func newState(cfg Config) *state {
	st := &state{
		cfg:     cfg,
		n:       cfg.N,
		total:   cfg.N + 1,
		hopBits: hopBits(cfg.N),
	}
	st.has = make([][]bool, cfg.M)
	st.recvSlot = make([][]int, cfg.M)
	st.remain = make([]int, cfg.M)
	for p := range st.has {
		st.has[p] = make([]bool, st.total)
		st.recvSlot[p] = make([]int, st.total)
		for i := range st.recvSlot[p] {
			st.recvSlot[p][i] = -1
		}
		st.remain[p] = st.total
	}
	return st
}

// hopBits returns n such that the doubling offsets 2^0..2^(n-1) cover all
// hop distances on the N-cycle; for the paper's N = 2^n assumption this is
// exactly log2(N).
func hopBits(n int) int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

// deliver marks node holding packet p from slot c on.
func (st *state) deliver(p, node, c int) {
	if st.has[p][node] {
		return
	}
	st.has[p][node] = true
	st.recvSlot[p][node] = c
	st.remain[p]--
}

// choosePacket returns f(i, c): the packet node i should transmit at slot
// c, or -1 for NIL.
func (st *state) choosePacket(i, c int) int {
	best := -1
	bestSlot := -1
	for p := 0; p < st.cfg.M; p++ {
		if !st.has[p][i] || st.recvSlot[p][i] > c {
			continue
		}
		// The expiry rule is the node's only way to retire a packet: a
		// sensor cannot observe global completion, so (exactly as the
		// paper argues) it may retransmit a packet the whole network
		// already holds until the packet's expired time passes.
		if !st.cfg.DisableExpiry && c >= analysis.ExpiredTime(p, st.n) {
			continue
		}
		switch st.cfg.Policy {
		case MostRecentFirst:
			// Most recent reception wins; ties (same slot) prefer the newer
			// packet index.
			if st.recvSlot[p][i] > bestSlot || (st.recvSlot[p][i] == bestSlot && p > best) {
				best, bestSlot = p, st.recvSlot[p][i]
			}
		case FIFOPacket:
			if best == -1 {
				best = p
			}
		}
	}
	return best
}

// target implements the dissemination rule of Algorithm 1 line 7.
func (st *state) target(i, c int) int {
	offset := 1 << (c % st.hopBits)
	t := (offset + i) % st.n
	if t == 0 {
		return st.n // "If ... is 0, the packet is delivered to node N."
	}
	return t
}

// Trace records the full possession matrix per compact slot, for rendering
// the Fig. 3 example.
type Trace struct {
	// Slots[c][p][node] reports possession of packet p by node at the
	// beginning of compact slot c.
	Slots  [][][]bool
	Result Result
}

// RunTrace executes Algorithm 1 while capturing the possession matrix at
// the beginning of every compact slot up to and including completion.
func RunTrace(cfg Config) (Trace, error) {
	var slots [][][]bool
	res, err := run(cfg, func(has [][]bool) {
		snap := make([][]bool, len(has))
		for p := range snap {
			snap[p] = append([]bool(nil), has[p]...)
		}
		slots = append(slots, snap)
	})
	if err != nil {
		return Trace{Result: res}, err
	}
	return Trace{Slots: slots, Result: res}, nil
}
