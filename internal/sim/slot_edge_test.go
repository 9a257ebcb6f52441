package sim

// Edge-case certification for the slot loop: single-receiver slots and
// hyperperiods with empty awake buckets. Each case pins the Result of an
// RNG-free protocol on a draw-free configuration to figures derived by
// hand.

import (
	"slices"
	"testing"

	"ldcflood/internal/schedule"
	"ldcflood/internal/topology"
)

// greedyProtocol is a deterministic, RNG-free protocol: each awake
// receiver is served by its lowest-id unassigned neighbor holding a packet
// it needs, which sends its FCFS packet.
type greedyProtocol struct {
	assigned []bool
	buf      []Intent
}

func (p *greedyProtocol) Name() string          { return "greedy" }
func (p *greedyProtocol) CollisionsApply() bool { return true }
func (p *greedyProtocol) Overhears() bool       { return false }

func (p *greedyProtocol) Reset(w *World) {
	p.assigned = make([]bool, w.Graph.N())
}

func (p *greedyProtocol) Intents(w *World) []Intent {
	out := p.buf[:0]
	for _, r := range w.awakeList {
		for _, l := range w.Graph.Neighbors(r) {
			if p.assigned[l.To] {
				continue
			}
			if pkt := w.OldestNeeded(l.To, r); pkt >= 0 {
				p.assigned[l.To] = true
				out = append(out, Intent{From: l.To, To: r, Packet: pkt})
				break
			}
		}
	}
	p.buf = out
	for _, in := range out {
		p.assigned[in.From] = false
	}
	return out
}

// lineGraph builds an n-node path with uniform link quality.
func lineGraph(n int, prr float64) *topology.Graph {
	g := topology.New(n)
	for v := 1; v < n; v++ {
		g.AddLink(v-1, v, prr)
	}
	g.SortNeighbors()
	return g
}

// greedyRun floods two packets, injected at slots 0 and 1, to full
// coverage with the greedy protocol.
func greedyRun(t *testing.T, g *topology.Graph, scheds []*schedule.Schedule) *Result {
	t.Helper()
	res, err := Run(Config{
		Graph:            g,
		Schedules:        scheds,
		Protocol:         &greedyProtocol{},
		M:                2,
		Coverage:         1,
		Seed:             7,
		MaxSlots:         50000,
		RecordReceptions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// edgeWant is the hand-derived part of an edge case's Result.
type edgeWant struct {
	slots                  int64
	transmissions, busy    int
	cover, delay, firstHop []int64
}

// checkEdge compares res with the hand-derived figures; PRR 1 and no sync
// errors leave the engine no draw that could change them.
func checkEdge(t *testing.T, res *Result, want edgeWant) {
	t.Helper()
	if !res.Completed || res.TotalSlots != want.slots || res.Transmissions != want.transmissions ||
		res.BusyFailures != want.busy || res.Failures() != want.busy {
		t.Errorf("completed %v in %d slots, %d transmissions, %d busy of %d failures; want true, %d, %d, %d of %d",
			res.Completed, res.TotalSlots, res.Transmissions, res.BusyFailures, res.Failures(),
			want.slots, want.transmissions, want.busy, want.busy)
	}
	if !slices.Equal(res.CoverTime, want.cover) || !slices.Equal(res.Delay, want.delay) ||
		!slices.Equal(res.FirstHopDelay, want.firstHop) {
		t.Errorf("cover %v, delay %v, first hop %v; want %v, %v, %v",
			res.CoverTime, res.Delay, res.FirstHopDelay, want.cover, want.delay, want.firstHop)
	}
}

// TestShardSingleAwakeNodeSlots gives every node of a 10-node line its
// own exclusive slot (node i wakes at phase i of period 10): every awake
// bucket has exactly one receiver, and the merge phase sees at most one
// success per slot. Node i pulls packet 0 from node i-1 at slot i, and
// packet 1 one period later, at slot 10+i.
func TestShardSingleAwakeNodeSlots(t *testing.T) {
	const n = 10
	g := lineGraph(n, 1)
	scheds := make([]*schedule.Schedule, n)
	for i := range scheds {
		scheds[i] = schedule.NewSingleSlot(n, i)
	}
	res := greedyRun(t, g, scheds)
	checkEdge(t, res, edgeWant{
		slots: 20, transmissions: 18,
		cover: []int64{9, 19}, delay: []int64{9, 18}, firstHop: []int64{1, 10},
	})
	for i := 1; i < n; i++ {
		if got := [2]int64{res.NodeRecvTime[0][i], res.NodeRecvTime[1][i]}; got != [2]int64{int64(i), int64(10 + i)} {
			t.Errorf("node %d received at %v, want [%d %d]", i, got, i, 10+i)
		}
	}
}

// TestShardZeroAwakeGaps aligns every node of a 12-node line on phase 0
// of a period-8 schedule: seven of every eight slots have an empty awake
// bucket, so the loop steps over the gaps, visiting only the injection
// slots and phase 0. At slot 0 node 1 pulls packet 0. At slot 8 node 1
// pulls packet 1 from node 0 while serving packet 0 to node 2, so its own
// reception is lost as busy. From slot 16 on, each period moves packet 0
// one hop (node k+1 at slot 8k) and packet 1 one hop behind it two nodes
// back (node k-1): packet 0 covers at slot 80 and packet 1 at slot 96,
// after 1 + 2 + 9×2 + 1 + 1 = 23 transmissions.
func TestShardZeroAwakeGaps(t *testing.T) {
	const n = 12
	g := lineGraph(n, 1)
	scheds := make([]*schedule.Schedule, n)
	for i := range scheds {
		scheds[i] = schedule.NewSingleSlot(8, 0)
	}
	checkEdge(t, greedyRun(t, g, scheds), edgeWant{
		slots: 97, transmissions: 23, busy: 1,
		cover: []int64{80, 96}, delay: []int64{80, 95}, firstHop: []int64{0, 15},
	})
}
