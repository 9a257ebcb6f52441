package flood

// Trickle skips a receiver none of whose neighbours holds a packet it
// lacks, read off the engine's neighbour-holder count. This test
// certifies the skip against the full row scan it replaced, on every
// planned slot and over whole runs.

import (
	"fmt"
	"slices"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
)

// fullScanTrickle is the full-scan reference for Trickle.PlanReceiver:
// every needy receiver scans its whole row for armed holders.
func fullScanTrickle(t *Trickle, w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	if !w.NeedsAnything(r) {
		return buf
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
		var flags uint8
		if t.suppressedAt(w, s, start) {
			flags = candSuppressed
		} else if deferKeyed(w, s, slot) {
			flags = candDeferred
		}
		buf = append(buf, sim.Candidate{Node: s32, Packet: sim.PacketFCFS, Flags: flags, PRR: prrs[i]})
	}
	return buf
}

// scanTrickle is Trickle planning every receiver with the full scan.
type scanTrickle struct{ *Trickle }

func (s scanTrickle) Intents(w *sim.World) []sim.Intent { return sim.PlanIntents(w, s) }

func (s scanTrickle) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	return fullScanTrickle(s.Trickle, w, r, slot, buf)
}

// checkedTrickle plans with the skip and compares every awake receiver's
// candidate list with the full scan's, on the same world.
type checkedTrickle struct {
	*Trickle
	t     *testing.T
	label string
	// skipped counts needy receivers the skip left out; planned counts
	// receivers that planned a candidate.
	skipped, planned int
}

func (c *checkedTrickle) Intents(w *sim.World) []sim.Intent { return sim.PlanIntents(w, c) }

func (c *checkedTrickle) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	start := len(buf)
	buf = c.Trickle.PlanReceiver(w, r, slot, buf)
	got := buf[start:]
	want := fullScanTrickle(c.Trickle, w, r, slot, nil)
	if !w.NeighborHoldsNeeded(r) && w.NeedsAnything(r) {
		c.skipped++
		if len(want) > 0 {
			c.t.Errorf("%s, slot %d: receiver %d skipped, full scan plans %v", c.label, w.Now(), r, want)
		}
	}
	if len(got) > 0 {
		c.planned++
	}
	if !slices.Equal(got, want) {
		c.t.Errorf("%s, slot %d: receiver %d plans %v, full scan %v", c.label, w.Now(), r, got, want)
	}
	return buf
}

// TestTrickleSkipMatchesFullScan runs Trickle on random graphs and
// schedules, M ∈ {1, 64, 65}, with overhearing on and off, with and
// without crash/reboot churn (a crash lowers its neighbours' holder
// counts), and requires that every receiver the skip leaves out is one
// the full scan plans no candidate for, that every planned receiver's
// list equals the full scan's, and that the whole run — Result and both
// trace encodings — equals a run planned by the full scan.
func TestTrickleSkipMatchesFullScan(t *testing.T) {
	var skipped, planned, dropped int
	for _, m := range []int{1, 64, 65} {
		for seed := uint64(1); seed <= 6; seed++ {
			r := rngutil.New(seed*7717 + uint64(m))
			g := randomOFGraph(r)
			n := g.N()
			var fs *fault.Schedule
			if seed%3 != 0 {
				fs = &fault.Schedule{}
				crashed := map[int]bool{}
				for k := 1 + r.Intn(3); k > 0; k-- {
					node := 1 + r.Intn(n-1)
					if crashed[node] {
						continue
					}
					crashed[node] = true
					at := int64(r.Intn(20 * m))
					reboot := int64(-1)
					if r.Bool(0.7) {
						reboot = at + 1 + int64(r.Intn(300))
					}
					fs.Crashes = append(fs.Crashes, fault.Crash{Node: node, At: at, RebootAt: reboot})
				}
			}
			cfg := sim.Config{
				Graph:          g,
				Schedules:      schedule.AssignUniform(n, 1+r.Intn(8), r.SubName("schedule")),
				M:              m,
				InjectInterval: 1 + r.Intn(3),
				Coverage:       1,
				Seed:           seed,
				MaxSlots:       4000,
				Faults:         fs,
			}
			noOverhear := seed%2 == 0
			label := fmt.Sprintf("M=%d seed=%d overhear=%v", m, seed, !noOverhear)
			c := &checkedTrickle{Trickle: &Trickle{DisableOverhearing: noOverhear}, t: t, label: label}
			ref, refTr := runWith(t, cfg, scanTrickle{&Trickle{DisableOverhearing: noOverhear}})
			res, tr := runWith(t, cfg, c)
			equalResults(t, res, ref, label)
			equalTraces(t, tr, refTr, label)
			skip, skipTr := runWith(t, cfg, &Trickle{DisableOverhearing: noOverhear})
			equalResults(t, skip, ref, label+" (engine planner)")
			equalTraces(t, skipTr, refTr, label+" (engine planner)")
			skipped += c.skipped
			planned += c.planned
			dropped += ref.CrashDropped
		}
	}
	if skipped == 0 || planned == 0 || dropped == 0 {
		t.Fatalf("grid skipped %d needy receivers, planned %d and dropped %d packet copies in crashes: the skip went unexercised", skipped, planned, dropped)
	}
	t.Logf("skipped %d needy receivers, planned %d, %d packet copies dropped in crashes", skipped, planned, dropped)
}
