package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"ldcflood/internal/flood"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
	"ldcflood/internal/tracelog"
)

// fingerprint hashes every field of a result the benchmark checks between
// repetitions: delays, coverage and injection times, and the transmission
// accounting. The engine is deterministic, so each repetition of a cell must
// reproduce its first fingerprint exactly.
func fingerprint(r *sim.Result) uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for p := 0; p < r.M; p++ {
		put(r.InjectTime[p])
		put(r.CoverTime[p])
		put(r.Delay[p])
	}
	for _, v := range []int{r.Transmissions, r.LossFailures, r.CollisionFailures, r.BusyFailures,
		r.SyncFailures, r.JamFailures, r.Overheard, r.Captures} {
		put(int64(v))
	}
	put(r.TotalSlots)
	return h.Sum64()
}

// oracle holds the per-cell facts the checks compare results against,
// computed from the topology alone, never from the engine.
type oracle struct {
	// minDelay is a lower bound on every packet's flooding delay: the
	// coverage target needs the packet at a node that many hops from the
	// source, and a packet advances at most one hop per slot (delivery in
	// the injection slot counts as zero).
	minDelay int64
}

func newOracle(g *topology.Graph) (oracle, error) {
	dist := g.HopDistances(0)
	sorted := append([]int(nil), dist...)
	sort.Ints(sorted)
	if sorted[0] < 0 {
		return oracle{}, fmt.Errorf("topology is disconnected")
	}
	cover := coverNodes(g.N())
	return oracle{minDelay: int64(sorted[cover-1] - 1)}, nil
}

// coverNodes is ⌈0.99·n⌉, the engine's coverage target at Coverage 0.99,
// computed in integers so rounding cannot differ from the definition.
func coverNodes(n int) int { return (99*n + 99) / 100 }

// checkResult applies the engine-independent invariants to one cell.
func checkResult(r *sim.Result, m, n int, o oracle) error {
	if !r.Completed {
		return fmt.Errorf("flood did not complete within %d slots", r.TotalSlots)
	}
	if r.M != m || r.CoverNodes != coverNodes(n) {
		return fmt.Errorf("result reports M=%d cover=%d, want M=%d cover=%d", r.M, r.CoverNodes, m, coverNodes(n))
	}
	for p := 0; p < m; p++ {
		if r.CoverTime[p] < r.InjectTime[p] || r.Delay[p] != r.CoverTime[p]-r.InjectTime[p] {
			return fmt.Errorf("packet %d: inject %d cover %d delay %d inconsistent", p, r.InjectTime[p], r.CoverTime[p], r.Delay[p])
		}
		if r.Delay[p] < o.minDelay {
			return fmt.Errorf("packet %d: delay %d below the hop-distance bound %d", p, r.Delay[p], o.minDelay)
		}
		if r.CoverTime[p] > r.TotalSlots {
			return fmt.Errorf("packet %d covered at slot %d after the run's %d slots", p, r.CoverTime[p], r.TotalSlots)
		}
	}
	sum := 0
	for _, t := range r.TxPerNode {
		sum += t
	}
	if sum != r.Transmissions {
		return fmt.Errorf("per-node transmissions sum to %d, total says %d", sum, r.Transmissions)
	}
	// Every covered packet reached CoverNodes-1 nodes besides the source,
	// each by a successful transmission or an overheard one.
	if got, need := r.Transmissions-r.Failures()+r.Overheard, (r.CoverNodes-1)*m; got < need {
		return fmt.Errorf("%d receptions cannot cover %d packets (%d needed)", got, m, need)
	}
	return nil
}

// traceCheck is what checking a cell's binary trace cost and measured.
type traceCheck struct {
	encode, decode time.Duration // re-encoding / decoding the trace
	events         int
	bytes          int
}

// checkTrace re-runs a cell with a streaming binary trace, decodes it, and
// requires the trace to agree with the result: transmissions by outcome and
// overhearing counts, and injection and coverage times, where coverage is
// recomputed by replaying every delivery (see replay). It also requires that
// attaching the trace left the result unchanged and that re-encoding the
// decoded events reproduces the streamed bytes exactly.
func checkTrace(cfg sim.Config, protocol string, want *sim.Result) (*traceCheck, error) {
	n := cfg.Graph.N()
	p, err := flood.New(protocol)
	if err != nil {
		return nil, err
	}
	cfg.Protocol = p
	var buf bytes.Buffer
	w := tracebin.NewWriter(&buf)
	cfg.Observer = w
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if fingerprint(res) != fingerprint(want) {
		return nil, fmt.Errorf("attaching a trace observer changed the result")
	}
	streamed := buf.Bytes()

	t0 := time.Now()
	events, torn, err := tracebin.ReadAll(bytes.NewReader(streamed))
	decode := time.Since(t0)
	if err != nil || torn {
		return nil, fmt.Errorf("decode trace: torn=%v err=%v", torn, err)
	}
	t0 = time.Now()
	again, err := tracebin.Encode(events)
	encode := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(again, streamed) {
		return nil, fmt.Errorf("re-encoding %d decoded events gave %d bytes, streamed %d", len(events), len(again), len(streamed))
	}

	var tx, overheard int
	outcomes := map[sim.TxOutcome]int{}
	rp := newReplay(want.M, n)
	for _, ev := range events {
		switch ev.Kind {
		case tracelog.KindInject:
			err = rp.inject(ev.T, ev.Packet)
		case tracelog.KindTransmit:
			tx++
			outcomes[ev.Outcome]++
			if ev.Outcome == sim.TxSuccess {
				err = rp.deliver(ev.T, ev.From, ev.To, ev.Packet)
			}
		case tracelog.KindOverhear:
			overheard++
			err = rp.deliver(ev.T, ev.From, ev.To, ev.Packet)
		case tracelog.KindCovered:
			err = rp.covered(ev.T, ev.Packet)
		}
		if err != nil {
			return nil, fmt.Errorf("trace replay at slot %d: %w", ev.T, err)
		}
	}
	switch {
	case tx != want.Transmissions:
		return nil, fmt.Errorf("trace has %d transmissions, result %d", tx, want.Transmissions)
	case overheard != want.Overheard:
		return nil, fmt.Errorf("trace has %d overhears, result %d", overheard, want.Overheard)
	// The engine counts an oracle's redundant transmissions as losses.
	case outcomes[sim.TxLoss]+outcomes[sim.TxRedundant] != want.LossFailures,
		outcomes[sim.TxCollision] != want.CollisionFailures, outcomes[sim.TxBusy] != want.BusyFailures:
		return nil, fmt.Errorf("trace outcomes %v disagree with result loss=%d collision=%d busy=%d",
			outcomes, want.LossFailures, want.CollisionFailures, want.BusyFailures)
	}
	for p := 0; p < want.M; p++ {
		if rp.injectAt[p] != want.InjectTime[p] {
			return nil, fmt.Errorf("trace injects packet %d at %d, result at %d", p, rp.injectAt[p], want.InjectTime[p])
		}
		if at := rp.reachedAt(p, want.CoverNodes); at != want.CoverTime[p] || rp.coveredAt[p] != at {
			return nil, fmt.Errorf("packet %d reaches %d holders at slot %d in the trace replay; trace says covered at %d, result %d",
				p, want.CoverNodes, at, rp.coveredAt[p], want.CoverTime[p])
		}
	}
	return &traceCheck{encode: encode, decode: decode, events: len(events), bytes: len(streamed)}, nil
}

// replay rebuilds who holds which packet from a trace's deliveries alone,
// enforcing causality: a node forwards only a packet it received in an
// earlier slot (the source, from its injection slot on).
type replay struct {
	m, n      int
	injectAt  []int64
	coveredAt []int64
	heldAt    []int64   // packet*n + node → slot the node first held it, -1 if never
	gains     [][]int64 // per packet, the slots at which a new node first held it
}

func newReplay(m, n int) *replay {
	r := &replay{m: m, n: n, injectAt: make([]int64, m), coveredAt: make([]int64, m),
		heldAt: make([]int64, m*n), gains: make([][]int64, m)}
	for i := range r.heldAt {
		r.heldAt[i] = -1
	}
	for p := range r.injectAt {
		r.injectAt[p], r.coveredAt[p] = -1, -1
	}
	return r
}

func (r *replay) packet(p int) error {
	if p < 0 || p >= r.m {
		return fmt.Errorf("packet %d out of range", p)
	}
	return nil
}

func (r *replay) inject(t int64, p int) error {
	if err := r.packet(p); err != nil {
		return err
	}
	if r.injectAt[p] >= 0 {
		return fmt.Errorf("packet %d injected twice", p)
	}
	r.injectAt[p] = t
	r.heldAt[p*r.n] = t
	r.gains[p] = append(r.gains[p], t)
	return nil
}

func (r *replay) deliver(t int64, from, to, p int) error {
	if err := r.packet(p); err != nil {
		return err
	}
	if from < 0 || from >= r.n || to < 0 || to >= r.n {
		return fmt.Errorf("delivery %d→%d outside the %d-node topology", from, to, r.n)
	}
	if h := r.heldAt[p*r.n+from]; h < 0 || h > t || (h == t && from != 0) {
		return fmt.Errorf("node %d forwards packet %d it has not yet received", from, p)
	}
	if r.heldAt[p*r.n+to] < 0 {
		r.heldAt[p*r.n+to] = t
		r.gains[p] = append(r.gains[p], t)
	}
	return nil
}

func (r *replay) covered(t int64, p int) error {
	if err := r.packet(p); err != nil {
		return err
	}
	if r.coveredAt[p] >= 0 {
		return fmt.Errorf("packet %d covered twice", p)
	}
	r.coveredAt[p] = t
	return nil
}

// reachedAt is the slot at which packet p first had k holders, or -1.
func (r *replay) reachedAt(p, k int) int64 {
	if len(r.gains[p]) < k {
		return -1
	}
	return r.gains[p][k-1]
}
