package sim

// Certification of the keyed-stream slot discipline: node-relabeling
// invariance on the RNG-free subspace, and that Config.Workers, accepted
// for compatibility, never changes a result.

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/topology"
)

// chaosRun builds a fresh randomized-but-valid configuration from seed and
// runs it with the given Config.Workers value. Everything — graph,
// schedules, protocol stream, fault schedule — is re-derived from the seed
// so repeated calls are exact replicas differing only in that field.
func chaosRun(t *testing.T, seed uint64, workers int) *Result {
	t.Helper()
	r := rngutil.New(seed)
	g := randomConnectedGraph(r)
	n := g.N()
	proto := &chaosProtocol{
		rng:      r.SubName("chaos"),
		density:  0.1 + 0.8*r.Float64(),
		collide:  r.Bool(0.5),
		overhear: r.Bool(0.5),
	}
	var faults *fault.Schedule
	switch seed % 4 {
	case 1: // static random-subset degradation
		faults = &fault.Schedule{Links: []fault.LinkRule{{BadScale: 0.4, StartBad: 0.5}}}
	case 2: // moving chains plus a jam window
		faults = &fault.Schedule{
			Links: []fault.LinkRule{{PGB: 0.05, PBG: 0.2, BadScale: 0.3}},
			Jams:  []fault.Jam{{From: 40, Until: 90, Nodes: []int{1, 2}}},
		}
	case 3: // crash/reboot churn plus chains
		faults = &fault.Schedule{
			Links:   []fault.LinkRule{{PGB: 0.03, PBG: 0.3, BadScale: 0.5, StartBad: 0.2}},
			Crashes: []fault.Crash{{Node: 1 + int(seed)%(n-1), At: 50, RebootAt: 140}},
		}
	}
	res, err := Run(Config{
		Graph:            g,
		Schedules:        schedule.AssignUniform(n, 1+int(seed%8), r.SubName("schedule")),
		Protocol:         proto,
		M:                1 + int(seed%4),
		Coverage:         1,
		Seed:             seed,
		MaxSlots:         20000,
		SyncErrorProb:    0.05,
		RecordReceptions: true,
		Faults:           faults,
		Workers:          workers,
	})
	if err != nil {
		t.Fatalf("seed %d workers %d: %v", seed, workers, err)
	}
	return res
}

// TestWorkerCountInvariance checks that Config.Workers is ignored: for
// any valid configuration — chaotic protocol behaviour, every
// fault-schedule family, sync errors — the full Result is
// bit-for-bit identical whatever the field holds, negative values
// included, and identical across reruns.
func TestWorkerCountInvariance(t *testing.T) {
	for seed := uint64(0); seed < 24; seed++ {
		base := chaosRun(t, seed, 0)
		for _, workers := range []int{0, 1, runtime.NumCPU(), 32, -1} {
			if got := chaosRun(t, seed, workers); !reflect.DeepEqual(got, base) {
				t.Fatalf("seed %d: Workers %d diverged from Workers 0", seed, workers)
			}
		}
	}
}

// relabelProtocol is a deterministic, RNG-free, permutation-equivariant
// strategy: every awake receiver picks the neighbor holding its FCFS packet
// with the earliest reception time (ties: no transmission — a tie is a
// label-independent condition, picking either side would not be), and
// senders chosen by more than one receiver stand down. Its decisions depend
// only on graph structure and reception history, never on node labels or
// random draws, so relabeling the nodes relabels the outcome.
func relabelProtocol() *FuncProtocol {
	return &FuncProtocol{
		ProtocolName: "relabel-equivariant",
		Collisions:   true,
		Overhearing:  true,
		IntentsFunc: func(w *World) []Intent {
			type pick struct{ from, to, pkt int }
			var picks []pick
			senderCount := make([]int, w.Graph.N())
			for _, r := range w.awakeList {
				bestFrom, bestPkt := -1, -1
				bestTime := int64(math.MaxInt64)
				tie := false
				for _, l := range w.Graph.Neighbors(r) {
					pkt := w.OldestNeeded(l.To, r)
					if pkt < 0 {
						continue
					}
					rt := w.RecvTime(pkt, l.To)
					if rt < bestTime {
						bestFrom, bestPkt, bestTime, tie = l.To, pkt, rt, false
					} else if rt == bestTime {
						tie = true
					}
				}
				if bestFrom >= 0 && !tie {
					picks = append(picks, pick{bestFrom, r, bestPkt})
					senderCount[bestFrom]++
				}
			}
			var out []Intent
			for _, p := range picks {
				if senderCount[p.from] == 1 {
					out = append(out, Intent{From: p.from, To: p.to, Packet: p.pkt})
				}
			}
			return out
		},
	}
}

// TestRelabelingInvariance checks metamorphic permutation invariance on the
// RNG-free subspace (PRR 1 everywhere, so no loss draw is ever consumed;
// the protocol consumes none by construction): permuting node labels — with
// the source fixed, since injection is defined at node 0 — must permute the
// per-node results and leave every aggregate untouched. This pins down that the (slot, node)-keyed
// streams never leak label-dependent randomness into an otherwise
// deterministic run.
func TestRelabelingInvariance(t *testing.T) {
	const n, period = 40, 5
	build := func(perm []int) (*topology.Graph, []*schedule.Schedule) {
		g := topology.New(n)
		for i := 0; i+1 < n; i++ {
			g.AddLink(perm[i], perm[i+1], 1)
		}
		g.SortNeighbors()
		scheds := make([]*schedule.Schedule, n)
		for i := 0; i < n; i++ {
			scheds[perm[i]] = schedule.NewSingleSlot(period, i%period)
		}
		return g, scheds
	}
	run := func(perm []int) *Result {
		g, scheds := build(perm)
		res, err := Run(Config{
			Graph:            g,
			Schedules:        scheds,
			Protocol:         relabelProtocol(),
			M:                1,
			Coverage:         1,
			Seed:             7,
			MaxSlots:         20000,
			RecordReceptions: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("relabeling run did not complete")
		}
		return res
	}

	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	base := run(id)

	// The permutation fixes the source and scrambles everything else.
	perm := make([]int, n)
	perm[0] = 0
	shuffled := rngutil.New(99).Perm(n - 1)
	for i, v := range shuffled {
		perm[i+1] = v + 1
	}

	got := run(perm)
	// Aggregates are label-free.
	if got.Transmissions != base.Transmissions || got.Overheard != base.Overheard ||
		got.TotalSlots != base.TotalSlots || !reflect.DeepEqual(got.Delay, base.Delay) ||
		!reflect.DeepEqual(got.CoverTime, base.CoverTime) {
		t.Fatal("aggregates changed under relabeling")
	}
	// Per-node vectors map through the permutation.
	for i := 0; i < n; i++ {
		if got.TxPerNode[perm[i]] != base.TxPerNode[i] {
			t.Fatalf("TxPerNode[σ(%d)] = %d, want %d", i, got.TxPerNode[perm[i]], base.TxPerNode[i])
		}
		if got.AwakeSlotsPerNode[perm[i]] != base.AwakeSlotsPerNode[i] {
			t.Fatalf("AwakeSlots[σ(%d)] mismatch", i)
		}
		if got.NodeRecvTime[0][perm[i]] != base.NodeRecvTime[0][i] {
			t.Fatalf("NodeRecvTime[σ(%d)] = %d, want %d", i, got.NodeRecvTime[0][perm[i]], base.NodeRecvTime[0][i])
		}
	}
}

// keyedTimerProtocol is a timer-driven strategy in the style of the
// trickle/dflood implementations: each sender's fire point within the
// current 8-slot frame is a pure keyed derivation from a stream captured
// at Reset, and a receiver accepts a sender only when exactly one audible
// holder fires this slot. The key function maps node labels to timer
// identities, so composing it with a permutation transports every draw:
// keyed streams have no sequential state to desynchronize.
func keyedTimerProtocol(key func(int) int) *FuncProtocol {
	var timer rngutil.Stream
	return &FuncProtocol{
		ProtocolName: "keyed-timer",
		ResetFunc: func(w *World) {
			timer = *w.ProtoRNG.SubName("timer")
		},
		IntentsFunc: func(w *World) []Intent {
			const frame = 8
			now := w.Now()
			start := now / frame * frame
			fires := func(s int) bool {
				u := timer.PairFloat64(uint64(key(s)), uint64(start))
				return start+int64(u*frame) == now
			}
			type pick struct{ from, to int }
			var picks []pick
			senderCount := make([]int, w.Graph.N())
			for _, r := range w.awakeList {
				if w.Has(0, r) {
					continue
				}
				chosen, count := -1, 0
				for _, l := range w.Graph.Neighbors(r) {
					if w.Has(0, l.To) && fires(l.To) {
						chosen = l.To
						count++
					}
				}
				if count == 1 {
					picks = append(picks, pick{chosen, r})
					senderCount[chosen]++
				}
			}
			var out []Intent
			for _, pk := range picks {
				if senderCount[pk.from] == 1 {
					out = append(out, Intent{From: pk.from, To: pk.to, Packet: 0})
				}
			}
			return out
		},
	}
}

// TestKeyedTimerRelabelingInvariance is the metamorphic companion to
// TestRelabelingInvariance for timer-driven protocols: keyed stream
// derivations are pure functions of (key, frame), so permuting the node
// labels AND transporting the timer keys through the same permutation must
// permute the outcome exactly. This is the property that lets trickle and dflood keep
// bit-identical schedules across every engine mode without any engine-side
// timer state.
func TestKeyedTimerRelabelingInvariance(t *testing.T) {
	const n, period = 40, 5
	build := func(perm []int) (*topology.Graph, []*schedule.Schedule) {
		g := topology.New(n)
		for i := 0; i+1 < n; i++ {
			g.AddLink(perm[i], perm[i+1], 1)
		}
		g.SortNeighbors()
		scheds := make([]*schedule.Schedule, n)
		for i := 0; i < n; i++ {
			scheds[perm[i]] = schedule.NewSingleSlot(period, i%period)
		}
		return g, scheds
	}
	run := func(perm, role []int) *Result {
		g, scheds := build(perm)
		res, err := Run(Config{
			Graph:            g,
			Schedules:        scheds,
			Protocol:         keyedTimerProtocol(func(s int) int { return role[s] }),
			M:                1,
			Coverage:         1,
			Seed:             7,
			MaxSlots:         40000,
			RecordReceptions: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("keyed-timer run did not complete")
		}
		return res
	}

	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	base := run(id, id)

	// Fix the source (injection is defined at node 0), scramble the rest,
	// and transport the timer identity: node perm[i] plays role i.
	perm := make([]int, n)
	perm[0] = 0
	for i, v := range rngutil.New(99).Perm(n - 1) {
		perm[i+1] = v + 1
	}
	role := make([]int, n)
	for i, v := range perm {
		role[v] = i
	}

	got := run(perm, role)
	if got.Transmissions != base.Transmissions || got.TotalSlots != base.TotalSlots ||
		!reflect.DeepEqual(got.Delay, base.Delay) ||
		!reflect.DeepEqual(got.CoverTime, base.CoverTime) {
		t.Fatal("aggregates changed under relabeling")
	}
	for i := 0; i < n; i++ {
		if got.TxPerNode[perm[i]] != base.TxPerNode[i] {
			t.Fatalf("TxPerNode[σ(%d)] = %d, want %d", i, got.TxPerNode[perm[i]], base.TxPerNode[i])
		}
		if got.NodeRecvTime[0][perm[i]] != base.NodeRecvTime[0][i] {
			t.Fatalf("NodeRecvTime[σ(%d)] = %d, want %d", i, got.NodeRecvTime[0][perm[i]], base.NodeRecvTime[0][i])
		}
	}
}
