package sim_test

// Coverage accounting against an oracle that does not reuse it: the
// engine latches CoverTime and FirstHopDelay as deliveries reach the
// milestones, and an unfaulted run's per-node reception times say when
// each packet reached any holder count.

import (
	"fmt"
	"slices"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/flood"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// coverLog records every OnCovered call.
type coverLog struct {
	slots   []int64
	packets []int
}

func (c *coverLog) OnInject(int64, int)                            {}
func (c *coverLog) OnTransmit(int64, int, int, int, sim.TxOutcome) {}
func (c *coverLog) OnOverhear(int64, int, int, int)                {}
func (c *coverLog) OnCovered(t int64, packet int) {
	c.slots = append(c.slots, t)
	c.packets = append(c.packets, packet)
}

// TestCoverageMatchesReceptions runs every protocol unfaulted with
// RecordReceptions, M ∈ {1, 64, 65} and coverage ∈ {1e-9, 0.99, 1}
// (coverage 1e-9 makes the source alone cover a packet), and requires
// CoverTime[p] to be the CoverNodes-th smallest reception time of p (-1
// when fewer nodes hold it), Delay[p] to follow from it, and
// FirstHopDelay[p] to be the second-smallest reception time minus
// InjectTime[p] (-1 when only the source holds p).
func TestCoverageMatchesReceptions(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	for _, proto := range flood.Names() {
		for _, m := range []int{1, 64, 65} {
			for _, coverage := range []float64{1e-9, 0.99, 1} {
				label := fmt.Sprintf("%s M=%d coverage=%v", proto, m, coverage)
				p, err := flood.New(proto)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Graph:            g,
					Schedules:        uniform(g.N(), 8, uint64(m)),
					Protocol:         p,
					M:                m,
					Coverage:         coverage,
					Seed:             uint64(m) + 7,
					MaxSlots:         50000,
					RecordReceptions: true,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkCoverageOracle(t, res, label)
			}
		}
	}
}

func checkCoverageOracle(t *testing.T, res *sim.Result, label string) {
	t.Helper()
	for p, row := range res.NodeRecvTime {
		var recv []int64
		for _, at := range row {
			if at >= 0 {
				recv = append(recv, at)
			}
		}
		slices.Sort(recv)
		wantCover, wantFirst := int64(-1), int64(-1)
		if len(recv) >= res.CoverNodes {
			wantCover = recv[res.CoverNodes-1]
		}
		if len(recv) >= 2 {
			wantFirst = recv[1] - res.InjectTime[p]
		}
		if res.CoverTime[p] != wantCover {
			t.Fatalf("%s: CoverTime[%d] = %d, receptions put it at %d", label, p, res.CoverTime[p], wantCover)
		}
		if wantCover >= 0 && res.Delay[p] != wantCover-res.InjectTime[p] {
			t.Fatalf("%s: Delay[%d] = %d, want %d", label, p, res.Delay[p], wantCover-res.InjectTime[p])
		}
		if res.FirstHopDelay[p] != wantFirst {
			t.Fatalf("%s: FirstHopDelay[%d] = %d, receptions put it at %d", label, p, res.FirstHopDelay[p], wantFirst)
		}
	}
}

// TestCoverageMatchesReceptionsUnderCrashes runs every protocol with crashes
// that drop packets, so a packet's holder count can fall below the
// coverage target and reach it again, and requires OnCovered to fire
// once per covered packet, at its CoverTime, in ascending packet order
// within a slot. Some slot of the grid must cover two packets, so the
// order is really checked, and some crash must drop a packet.
func TestCoverageMatchesReceptionsUnderCrashes(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	faults := &fault.Schedule{Crashes: []fault.Crash{
		{Node: 1, At: 30, RebootAt: 90},
		{Node: 7, At: 40, RebootAt: 400},
		{Node: 14, At: 55, RebootAt: 120},
		{Node: 20, At: 100, RebootAt: -1},
	}}
	shared, dropped := 0, 0
	for _, proto := range flood.Names() {
		for _, coverage := range []float64{0.5, 0.99} {
			label := fmt.Sprintf("%s coverage=%v", proto, coverage)
			p, err := flood.New(proto)
			if err != nil {
				t.Fatal(err)
			}
			log := &coverLog{}
			res, err := sim.Run(sim.Config{
				Graph:     g,
				Schedules: uniform(g.N(), 8, 3),
				Protocol:  p,
				M:         65,
				Coverage:  coverage,
				Seed:      11,
				MaxSlots:  50000,
				Faults:    faults,
				Observer:  log,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			dropped += res.CrashDropped
			seen := make([]bool, res.M)
			for i, pk := range log.packets {
				if seen[pk] {
					t.Fatalf("%s: OnCovered fired twice for packet %d", label, pk)
				}
				seen[pk] = true
				if res.CoverTime[pk] != log.slots[i] {
					t.Fatalf("%s: OnCovered(%d, %d), CoverTime %d", label, log.slots[i], pk, res.CoverTime[pk])
				}
				if i > 0 && log.slots[i] == log.slots[i-1] {
					shared++
					if pk <= log.packets[i-1] {
						t.Fatalf("%s: slot %d covers packet %d after %d", label, log.slots[i], pk, log.packets[i-1])
					}
				}
			}
			for pk, at := range res.CoverTime {
				if at >= 0 && !seen[pk] {
					t.Fatalf("%s: packet %d covered at %d without OnCovered", label, pk, at)
				}
			}
		}
	}
	if shared == 0 || dropped == 0 {
		t.Fatalf("%d slots covered two packets and crashes dropped %d packets; both must be positive", shared, dropped)
	}
}
