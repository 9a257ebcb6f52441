package flood

// DFlood decides from a fire calendar: a receiver with no ready neighbour
// is skipped, and pairChoice runs only for free ready senders. These
// tests certify that against a full-scan reference, hold the calendar
// itself to a sorted reference, bound the calendar's work on a run whose
// coverage is unreachable, and pin the suppression count's unit on a
// hand-derived case.

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// fullScanChoice is the full-scan reference for pairChoice: among the
// packets s holds and r lacks whose base forwarding slot has passed, the
// one with the smallest penalized slot (ties to the smaller packet index)
// if that slot has passed too. blocked reports a pair with a due packet
// that only the duplicate penalty holds back.
func fullScanChoice(d *DFlood, w *sim.World, s, r int, now int64) (pkt int, required int64, blocked bool) {
	pkt = -1
	for i := 0; i < w.PacketWords(); i++ {
		for need := w.NeededWord(s, r, i); need != 0; need &= need - 1 {
			p := i<<6 + bits.TrailingZeros64(need)
			base, req := d.fireSlots(w, s, p)
			if now < base {
				continue
			}
			if now < req {
				blocked = true
				continue
			}
			if pkt < 0 || req < required {
				pkt, required = p, req
			}
		}
	}
	return pkt, required, blocked && pkt < 0
}

// fullScanDFlood is the full-scan reference for DFlood.serve: among r's
// unassigned neighbours with an unblocked due packet r needs, the one with
// the smallest penalized slot, ties to the first in row order, that does
// not defer. It also returns how many neighbours offer such a packet,
// assigned or not.
func fullScanDFlood(d *DFlood, w *sim.World, r int, slot *rngutil.Stream) (in sim.Intent, ok bool, offers int) {
	if !w.NeedsAnything(r) {
		return in, false, 0
	}
	var best int64
	row, prrs := d.csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		pkt, req, _ := fullScanChoice(d, w, s, r, w.Now())
		if pkt < 0 {
			continue
		}
		offers++
		if d.assigned[s] || (ok && req >= best) || deferKeyed(w, s, slot) {
			continue
		}
		in, ok, best = sim.Intent{From: s, To: r, Packet: pkt, PRR: prrs[i]}, true, req
	}
	return in, ok, offers
}

// checkedDFlood is DFlood.Intents comparing every awake receiver's
// decision with the full scan's, on the same world.
type checkedDFlood struct {
	*DFlood
	t     *testing.T
	label string
	// skipped counts needy receivers the calendar skipped (no ready
	// neighbour); offered counts receivers some neighbour offered a
	// packet.
	skipped, offered int
}

func (c *checkedDFlood) Intents(w *sim.World) []sim.Intent {
	d := c.DFlood
	d.prepareSlot(w)
	slot := w.ProtoStream()
	var out []sim.Intent
	for r := range w.Graph.N() {
		if !w.IsAwake(r) {
			continue
		}
		got, ok := d.serve(w, r, &slot)
		want, wantOK, offers := fullScanDFlood(d, w, r, &slot)
		if d.readyNbr[r] == 0 && w.NeedsAnything(r) {
			c.skipped++
			if offers > 0 {
				c.t.Errorf("%s, slot %d: receiver %d skipped, full scan finds %d offers", c.label, w.Now(), r, offers)
			}
		}
		if offers > 0 {
			c.offered++
		}
		if got != want || ok != wantOK {
			c.t.Errorf("%s, slot %d: receiver %d served by %+v (%v), full scan %+v (%v)", c.label, w.Now(), r, got, ok, want, wantOK)
		}
		if ok {
			d.assigned[got.From] = true
			out = append(out, got)
		}
	}
	d.commit(w, out)
	return out
}

// dfloodGrid calls f for every case of the DFlood white-box grid: random
// graphs and schedules, M ∈ {1, 8, 80}, the penalty at Ndupl 2, 1 and
// off, and crash/reboot churn on two seeds of every three.
func dfloodGrid(f func(cfg sim.Config, ndupl int, label string)) {
	for _, m := range []int{1, 8, 80} {
		for seed := uint64(1); seed <= 6; seed++ {
			r := rngutil.New(seed*6007 + uint64(m))
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
					at := int64(r.Intn(40 * m))
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
				MaxSlots:       6000,
				Faults:         fs,
			}
			ndupl := []int{2, 1, -1}[seed%3]
			f(cfg, ndupl, fmt.Sprintf("M=%d seed=%d Ndupl=%d", m, seed, ndupl))
		}
	}
}

// TestDFloodCalendarMatchesFullScan runs DFlood over dfloodGrid and
// compares every awake receiver's decision with the full scan's: a
// skipped receiver has no neighbour offering a packet, and every receiver
// is served by the full scan's sender with its packet. The whole run must
// equal DFlood's own.
func TestDFloodCalendarMatchesFullScan(t *testing.T) {
	var skipped, offered int
	dfloodGrid(func(cfg sim.Config, ndupl int, label string) {
		c := &checkedDFlood{DFlood: &DFlood{Ndupl: ndupl}, t: t, label: label}
		ref, _ := runWith(t, cfg, &DFlood{Ndupl: ndupl})
		res, _ := runWith(t, cfg, c)
		equalResults(t, res, ref, label)
		skipped += c.skipped
		offered += c.offered
	})
	if skipped == 0 || offered == 0 {
		t.Fatalf("grid skipped %d needy receivers and saw %d offered to: the skip rule went unexercised", skipped, offered)
	}
}

// heldDFlood is DFlood checking its neighbour-holder count against a
// brute-force count over every node's CSR row, for every packet, after
// prepareSlot at every visited slot. Intents runs prepareSlot again,
// which then finds an empty journal and nothing due.
type heldDFlood struct {
	*DFlood
	t      *testing.T
	label  string
	checks int
}

func (h *heldDFlood) Intents(w *sim.World) []sim.Intent {
	d := h.DFlood
	d.prepareSlot(w)
	for p := 0; p < w.M; p++ {
		for v := 0; v < d.n; v++ {
			var want int32
			row, _ := d.csr.Row(v)
			for _, u := range row {
				if w.Has(p, int(u)) {
					want++
				}
			}
			if got := d.held[p*d.n+v]; got != want {
				h.t.Fatalf("%s, slot %d: held[%d][%d] = %d, brute force %d", h.label, w.Now(), p, v, got, want)
			}
		}
	}
	h.checks++
	return d.Intents(w)
}

// TestDFloodHolderCountMatchesBruteForce holds DFlood's own per-packet
// neighbour-holder count to its definition over dfloodGrid: at every
// visited slot, after prepareSlot, held[p*n+v] is the number of v's
// neighbours holding p. TestDFloodCalendarMatchesFullScan cannot catch a
// wrong count, since its full scan reads the same count through
// fireSlots.
func TestDFloodHolderCountMatchesBruteForce(t *testing.T) {
	dropped := 0
	dfloodGrid(func(cfg sim.Config, ndupl int, label string) {
		h := &heldDFlood{DFlood: &DFlood{Ndupl: ndupl}, t: t, label: label}
		ref, _ := runWith(t, cfg, &DFlood{Ndupl: ndupl})
		res, _ := runWith(t, cfg, h)
		equalResults(t, res, ref, label)
		if h.checks < 2 {
			t.Fatalf("%s: only %d checks ran", label, h.checks)
		}
		dropped += res.CrashDropped
	})
	if dropped == 0 {
		t.Fatal("grid never exercised a crash drop")
	}
}

// TestDFloodCalendarWorkBounded runs DFlood on the 6×6 grid with a
// permanent crash at full coverage, which no flood can reach, to horizons
// of 1e5 and 2e5 slots. The calendar's work — pops and pairChoice calls —
// must be the same at both: once the reachable nodes hold every packet,
// the senders next to the crashed node stay ready, and an idle slot costs
// O(awake), not O(ready set).
func TestDFloodCalendarWorkBounded(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	var ref dfloodWork
	for _, horizon := range []int64{100_000, 200_000} {
		d := NewDFlood()
		d.work = &dfloodWork{}
		res, err := sim.Run(sim.Config{
			Graph: g, Schedules: uniform(g.N(), 20, 42), Protocol: d,
			M: 3, Coverage: 1, Seed: 5, MaxSlots: horizon,
			Faults: &fault.Schedule{Crashes: []fault.Crash{{Node: 14, At: 60, RebootAt: -1}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed || res.TotalSlots != horizon {
			t.Fatalf("horizon %d: completed %v after %d slots; the crash should make coverage unreachable", horizon, res.Completed, res.TotalSlots)
		}
		if d.work.pops == 0 || d.work.choices == 0 {
			t.Fatalf("horizon %d: no calendar work recorded (%+v)", horizon, *d.work)
		}
		if ref.pops == 0 {
			ref = *d.work
		} else if *d.work != ref {
			t.Fatalf("horizon %d: calendar work %+v, at half the horizon %+v", horizon, *d.work, ref)
		}
	}
}

// TestDFloodSuppressionCountHandDerived pins the suppression unit on a
// four-node graph — links 0-1, 0-2, 1-2 and 1-3, all PRR 1 — with nodes
// 0–2 always awake and node 3 awake only at slot 5 of every 10. The timer
// delay is Tmin + backoff (Tmin 1, Tmax 2: no jitter), Ndupl 2, no
// overhearing and no deferral, so each slot follows by hand:
//
//	slot 0: packet injected at 0; timer (0) due at 0+1.
//	slot 1: 0 fires to 1 (its first receiver); 0's next attempt at 0+2.
//	slot 2: timers 0 (base 2) and 1 (base 1+1) are due with one holder
//	        neighbour each, below Ndupl: both ready. 0 fires to 2 (0
//	        first in 2's row), next attempt at 0+4; 3 sleeps.
//	slot 3: 2's copy gives 1 two holders: 1's penalized slot 2+2 = 4 >
//	        3, so 1 is postponed (count 1). 2's timer (base 3) has two
//	        holders: 3+2 = 5 > 3, postponed (count 2); every neighbour of
//	        2 holds the packet, so it parks.
//	slot 4: 0's timer (base 4) has two holders: 4+2 = 6 > 4 (count 3);
//	        it parks too. 1's penalized slot 4 has passed: ready.
//	slot 5: 3 wakes; 1 fires to it and the flood completes.
//
// Three timers, one per node 0–2, are counted, although no awake
// receiver needed the packet while they were postponed.
func TestDFloodSuppressionCountHandDerived(t *testing.T) {
	defer setDeferProb(0)()
	g := topology.New(4)
	for _, l := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}} {
		g.AddLink(l[0], l[1], 1)
	}
	g.SortNeighbors()
	scheds := []*schedule.Schedule{
		schedule.AlwaysOn(), schedule.AlwaysOn(), schedule.AlwaysOn(),
		schedule.NewSingleSlot(10, 5),
	}
	d := &DFlood{Tmin: 1, Tmax: 2, Ndupl: 2, DisableOverhearing: true}
	res, err := sim.Run(sim.Config{
		Graph: g, Schedules: scheds, Protocol: d,
		M: 1, Coverage: 1, Seed: 1, MaxSlots: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.TotalSlots != 6 || res.Transmissions != 3 {
		t.Fatalf("completed %v in %d slots with %d transmissions, want true, 6, 3", res.Completed, res.TotalSlots, res.Transmissions)
	}
	messages, suppressed := d.FloodCounters()
	if messages != 3 || suppressed != 3 {
		t.Fatalf("counters (%d messages, %d suppressed), want (3, 3)", messages, suppressed)
	}
	if per := d.SuppressedPerNode(); !slices.Equal(per, []int64{1, 1, 1, 0}) {
		t.Fatalf("suppressed per node %v, want [1 1 1 0]", per)
	}
}

// calendarModel drives a calendar and a sorted reference slice through
// steps rounds drawn from r. Each round pushes a few events before, at and
// after the calendar's last slot and past the current slot (spread over
// span slots, now and then 2^40 ahead), advances now by one slot or jumps
// it ahead as the engine's empty-offset skip does, and drains the
// calendar, sometimes pushing more events mid-drain as evaluate does. The
// events popped at each now must be exactly the reference's events at or
// before it, and the calendar must hold as many events as the reference
// after every round.
func calendarModel(t *testing.T, r *rngutil.Stream, steps int, span int64) {
	t.Helper()
	var c calendar
	c.reset()
	var ref []calEvent
	var entry int32
	byKey := func(a, b calEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.entry, b.entry))
	}
	push := func(at int64) {
		e := calEvent{at: at, entry: entry}
		entry++
		c.push(e)
		k, _ := slices.BinarySearchFunc(ref, e, byKey)
		ref = slices.Insert(ref, k, e)
	}
	// draw returns a slot relative to the calendar's last slot and now.
	draw := func(now int64) int64 {
		switch r.Intn(6) {
		case 0:
			return int64(r.Uint64n(uint64(c.last) + 1)) // at or before last
		case 1:
			return c.last
		case 2:
			return c.last + int64(r.Uint64n(uint64(now-c.last)+1)) // after last, not after now
		case 3:
			return now + 1 + int64(r.Uint64n(1<<40))
		default:
			return now + 1 + int64(r.Uint64n(uint64(span)))
		}
	}
	var now int64
	for step := 0; step < steps; step++ {
		for k := r.Intn(5); k > 0; k-- {
			push(draw(now))
		}
		switch r.Intn(4) {
		case 0:
			now += 1 + int64(r.Uint64n(uint64(4*span))) // a skip past several events
		case 1:
			if len(ref) > 0 && ref[0].at > now {
				now = ref[0].at // a skip to the next due event
				break
			}
			fallthrough
		default:
			now++
		}
		var popped []calEvent
		for c.due(now) {
			e := c.pop()
			if e.at > now {
				t.Fatalf("step %d, now %d: popped %+v, not yet due", step, now, e)
			}
			popped = append(popped, e)
			if r.Bool(0.2) {
				push(draw(now))
			}
		}
		slices.SortFunc(popped, byKey)
		due, _ := slices.BinarySearchFunc(ref, calEvent{at: now + 1}, byKey)
		if !slices.Equal(popped, ref[:due]) {
			t.Fatalf("step %d, now %d: popped %v, the reference has %v due", step, now, popped, ref[:due])
		}
		ref = ref[due:]
		held := 0
		for _, b := range c.buckets {
			held += len(b)
		}
		if held != len(ref) {
			t.Fatalf("step %d, now %d: calendar holds %d events, the reference %d", step, now, held, len(ref))
		}
	}
}

// TestCalendarMatchesSortedReference holds DFlood's radix calendar to a
// sorted slice over spans from one slot, where most events share their
// slot, to 2^20 slots, where events sit deep in the high buckets.
func TestCalendarMatchesSortedReference(t *testing.T) {
	for _, span := range []int64{1, 7, 64, 1000, 1 << 20} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("span=%d/seed=%d", span, seed), func(t *testing.T) {
				calendarModel(t, rngutil.New(seed).Sub(uint64(span)), 3000, span)
			})
		}
	}
}

// FuzzCalendar runs calendarModel from arbitrary seeds and spans; explore
// with
//
//	go test -run '^$' -fuzz FuzzCalendar -fuzztime 30s ./internal/flood
func FuzzCalendar(f *testing.F) {
	f.Add(uint64(1), uint32(1))
	f.Add(uint64(2), uint32(65))
	f.Add(uint64(3), uint32(1<<16))
	f.Fuzz(func(t *testing.T, seed uint64, span uint32) {
		calendarModel(t, rngutil.New(seed), 500, int64(span%(1<<24))+1)
	})
}
