package flood

// Trickle skips a receiver none of whose neighbours holds a packet it
// lacks, read off the engine's neighbour-holder count. This test
// certifies the skip against the full row scan it replaced, on every
// awake receiver and over whole runs.

import (
	"fmt"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
)

// fullScanTrickle is the full-scan reference for Trickle.serve: every
// needy receiver scans its whole row for armed holders. It also returns
// how many armed holders it saw.
func fullScanTrickle(t *Trickle, w *sim.World, r int, slot *rngutil.Stream) (in sim.Intent, ok bool, armed int) {
	if !w.NeedsAnything(r) {
		return in, false, 0
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
		armed++
		if t.suppressedAt(w, s, start) {
			t.supp.note(s32)
			continue
		}
		if ok || t.assigned[s] || deferKeyed(w, s, slot) {
			continue
		}
		in, ok = sim.Intent{From: s, To: r, Packet: sim.PacketFCFS, PRR: prrs[i]}, true
	}
	return in, ok, armed
}

// trickleSlot is Trickle.Intents with serve as the per-receiver decision.
func trickleSlot(t *Trickle, w *sim.World, serve func(r int, slot *rngutil.Stream) (sim.Intent, bool)) []sim.Intent {
	w.TakeHolderChanges()
	slot := w.ProtoStream()
	var out []sim.Intent
	for _, r := range w.AwakeList() {
		if in, ok := serve(r, &slot); ok {
			t.assigned[in.From] = true
			t.supp.message()
			out = append(out, in)
		}
	}
	release(t.assigned, out)
	t.supp.endSlot()
	return out
}

// scanTrickle is Trickle deciding every receiver with the full scan.
type scanTrickle struct{ *Trickle }

func (s scanTrickle) Intents(w *sim.World) []sim.Intent {
	return trickleSlot(s.Trickle, w, func(r int, slot *rngutil.Stream) (sim.Intent, bool) {
		in, ok, _ := fullScanTrickle(s.Trickle, w, r, slot)
		return in, ok
	})
}

// checkedTrickle decides with the skip and compares every awake
// receiver's decision with the full scan's, on the same world.
type checkedTrickle struct {
	*Trickle
	t     *testing.T
	label string
	// skipped counts needy receivers the skip left out; armed counts
	// receivers with an armed holder neighbour.
	skipped, armed int
}

func (c *checkedTrickle) Intents(w *sim.World) []sim.Intent {
	return trickleSlot(c.Trickle, w, func(r int, slot *rngutil.Stream) (sim.Intent, bool) {
		got, ok := c.serve(w, r, slot)
		want, wantOK, armed := fullScanTrickle(c.Trickle, w, r, slot)
		if !w.NeighborHoldsNeeded(r) && w.NeedsAnything(r) {
			c.skipped++
			if armed > 0 {
				c.t.Errorf("%s, slot %d: receiver %d skipped, full scan sees %d armed holders", c.label, w.Now(), r, armed)
			}
		}
		if armed > 0 {
			c.armed++
		}
		if got != want || ok != wantOK {
			c.t.Errorf("%s, slot %d: receiver %d served by %+v (%v), full scan %+v (%v)", c.label, w.Now(), r, got, ok, want, wantOK)
		}
		return got, ok
	})
}

// TestTrickleSkipMatchesFullScan runs Trickle on random graphs and
// schedules, M ∈ {1, 64, 65}, with overhearing on and off, with and
// without crash/reboot churn (a crash lowers its neighbours' holder
// counts), and requires that every receiver the skip leaves out is one
// the full scan sees no armed holder for, that every receiver's decision
// equals the full scan's, and that the whole run — Result and trace —
// equals a run decided by the full scan.
func TestTrickleSkipMatchesFullScan(t *testing.T) {
	var skipped, armed, dropped int
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
			equalResults(t, skip, ref, label+" (Trickle.Intents)")
			equalTraces(t, skipTr, refTr, label+" (Trickle.Intents)")
			skipped += c.skipped
			armed += c.armed
			dropped += ref.CrashDropped
		}
	}
	if skipped == 0 || armed == 0 || dropped == 0 {
		t.Fatalf("grid skipped %d needy receivers, saw %d with armed holders and dropped %d packet copies in crashes: the skip went unexercised", skipped, armed, dropped)
	}
	t.Logf("skipped %d needy receivers, %d with armed holders, %d packet copies dropped in crashes", skipped, armed, dropped)
}
