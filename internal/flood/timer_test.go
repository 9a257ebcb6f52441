package flood

// Behavior and counter suite for the timer-driven protocols (Trickle,
// DFlood): timer arithmetic, suppression semantics, and the
// mode-invariance of the message/suppression counters — identical across
// reruns and whether the engine plans through the planner methods or
// through Intents.

import (
	"math"
	"reflect"
	"testing"

	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

func TestTrickleIntervalWalk(t *testing.T) {
	tr := &Trickle{Imin: 16, MaxDoublings: 3, imax: 16 << 3}
	cases := []struct {
		lastReset, now, start, length int64
	}{
		{0, 0, 0, 16},
		{0, 15, 0, 16},
		{0, 16, 16, 32},
		{0, 47, 16, 32},
		{0, 48, 48, 64},
		{0, 112, 112, 128},         // first capped interval
		{0, 239, 112, 128},         // still inside it
		{0, 240, 240, 128},         // arithmetic continuation at imax
		{0, 240 + 5*128, 880, 128}, // arbitrary capped jump
		{100, 99 + 17, 116, 32},    // non-zero reset origin
		{100, 100, 100, 16},        // reset slot itself
		{7, 7 + 16 + 32 + 64, 119, 128},
	}
	for _, c := range cases {
		start, length := tr.intervalAt(c.lastReset, c.now)
		if start != c.start || length != c.length {
			t.Errorf("intervalAt(%d, %d) = (%d, %d), want (%d, %d)",
				c.lastReset, c.now, start, length, c.start, c.length)
		}
		if !(start <= c.now && c.now < start+length) {
			t.Errorf("intervalAt(%d, %d): now outside [%d, %d)", c.lastReset, c.now, start, start+length)
		}
	}
}

func TestTrickleFirePointInSecondHalf(t *testing.T) {
	tr := NewTrickle()
	g := topology.Line(4, 1)
	res := runOn(t, g, alwaysOn(4), tr, 1, 3, 10000)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	// The timer stream is now captured; probe fire points directly.
	for s := 0; s < 4; s++ {
		for _, start := range []int64{0, 16, 48, 113} {
			for _, length := range []int64{16, 32, 1024} {
				tau := tr.firePoint(s, start, length)
				if tau < start+length/2 || tau >= start+length {
					t.Fatalf("firePoint(%d, %d, %d) = %d outside [%d, %d)",
						s, start, length, tau, start+length/2, start+length)
				}
			}
		}
	}
}

func TestDFloodBackoffClosedForm(t *testing.T) {
	d := &DFlood{Tmin: 5, MaxDoublings: 6}
	// Reference: iterative doubling capped at Tmin << MaxDoublings.
	iterative := func(a int32) int64 {
		var sum, step int64 = 0, d.Tmin
		for i := int32(0); i < a; i++ {
			sum += step
			if step < d.Tmin<<d.MaxDoublings {
				step <<= 1
			}
		}
		return sum
	}
	for a := int32(0); a < 40; a++ {
		if got, want := d.backoff(a), iterative(a); got != want {
			t.Fatalf("backoff(%d) = %d, want %d", a, got, want)
		}
	}
}

// resetDFlood runs d's Reset through a one-slot run on a small grid, so
// its defaults are applied and its delay table drawn with every attempt
// counter still zero.
func resetDFlood(t *testing.T, d *DFlood) {
	t.Helper()
	g := topology.Grid(3, 3, 0.8)
	if _, err := sim.Run(sim.Config{
		Graph: g, Schedules: uniform(g.N(), 4, 1), Protocol: d,
		M: 3, Coverage: 1, Seed: 1, MaxSlots: 1,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDFloodDefaultTmaxRespectsTmin pins the documented [Tmin, Tmax)
// bound on the first forwarding delay when Tmax is left to its default:
// the exemplar's 65 while Tmin is below it, Tmin+60 otherwise.
func TestDFloodDefaultTmaxRespectsTmin(t *testing.T) {
	for _, c := range []struct{ tmin, tmax, want int64 }{
		{0, 0, 65}, {5, 0, 65}, {64, 0, 65}, {65, 0, 125}, {100, 0, 160}, {100, 90, 160}, {100, 101, 101},
	} {
		d := &DFlood{Tmin: c.tmin, Tmax: c.tmax}
		resetDFlood(t, d)
		if d.Tmax != c.want || d.Tmax <= d.Tmin {
			t.Errorf("Tmin %d, Tmax %d: defaulted to Tmin %d, Tmax %d, want Tmax %d", c.tmin, c.tmax, d.Tmin, d.Tmax, c.want)
		}
		for i, wait := range d.wait {
			if wait < d.Tmin || wait >= d.Tmax {
				t.Fatalf("Tmin %d, Tmax %d: first delay %d of entry %d outside [%d, %d)", c.tmin, c.tmax, wait, i, d.Tmin, d.Tmax)
			}
		}
	}
}

// TestDFloodBackoffNoOverflow checks that an oversized MaxDoublings is
// clamped so the capped step Tmin << MaxDoublings fits in int64, and that
// the accumulated backoff stays non-negative and non-decreasing, up to
// saturation, over the whole attempt-counter range.
func TestDFloodBackoffNoOverflow(t *testing.T) {
	for _, c := range []struct {
		tmin      int64
		doublings int
	}{{5, 60}, {5, 63}, {5, 100}, {1, 62}, {1 << 20, 50}} {
		d := &DFlood{Tmin: c.tmin, MaxDoublings: c.doublings}
		resetDFlood(t, d)
		if d.MaxDoublings > c.doublings {
			t.Fatalf("MaxDoublings %d raised to %d", c.doublings, d.MaxDoublings)
		}
		if step := d.Tmin << d.MaxDoublings; step <= 0 || step > maxBackoff || step>>d.MaxDoublings != d.Tmin {
			t.Fatalf("Tmin %d, MaxDoublings %d: capped step %d overflows", d.Tmin, d.MaxDoublings, step)
		}
		prev := int64(0)
		for _, a := range []int32{0, 1, 2, 30, 59, 60, 61, 62, 63, 64, 100, 1000, 1 << 20, math.MaxInt32} {
			b := d.backoff(a)
			if b < prev || b > maxBackoff {
				t.Fatalf("Tmin %d, MaxDoublings %d: backoff(%d) = %d after %d", d.Tmin, d.MaxDoublings, a, b, prev)
			}
			prev = b
		}
		if prev != maxBackoff {
			t.Fatalf("Tmin %d, MaxDoublings %d: backoff(MaxInt32) = %d, want saturation at %d", d.Tmin, d.MaxDoublings, prev, int64(maxBackoff))
		}
	}
}

// TestTimerProtocolsSuppress checks the suppression machinery actually
// engages on a dense topology and that the counters agree with their
// per-node breakdowns.
func TestTimerProtocolsSuppress(t *testing.T) {
	g := topology.GreenOrbs(3)
	for _, name := range []string{"trickle", "dflood"} {
		p, _ := New(name)
		res := runOn(t, g, uniform(g.N(), 10, 9), p, 5, 4, 2_000_000)
		if !res.Completed {
			t.Fatalf("%s incomplete", name)
		}
		type counted interface {
			FloodCounters() (int64, int64)
			SuppressedPerNode() []int64
		}
		c := p.(counted)
		messages, suppressed := c.FloodCounters()
		if messages == 0 {
			t.Fatalf("%s: no messages counted", name)
		}
		if int(messages) != res.Transmissions {
			t.Fatalf("%s: %d messages counted, %d transmissions recorded", name, messages, res.Transmissions)
		}
		if suppressed == 0 {
			t.Fatalf("%s: suppression never engaged on a dense graph", name)
		}
		var perNode int64
		for _, v := range c.SuppressedPerNode() {
			perNode += v
		}
		if perNode != suppressed {
			t.Fatalf("%s: per-node suppression sums to %d, total %d", name, perNode, suppressed)
		}
	}
}

// TestDFloodPenaltyDisabled pins the Ndupl semantics: with the duplicate
// penalty disabled (Ndupl < 0) nothing is ever suppressed, and with it
// enabled the flood spends fewer transmissions on a dense graph.
func TestDFloodPenaltyDisabled(t *testing.T) {
	g := topology.GreenOrbs(5)
	scheds := uniform(g.N(), 10, 11)
	off := &DFlood{Ndupl: -1}
	resOff := runOn(t, g, scheds, off, 5, 6, 2_000_000)
	_, suppressedOff := off.FloodCounters()
	if suppressedOff != 0 {
		t.Fatalf("penalty disabled but %d suppressions counted", suppressedOff)
	}
	on := NewDFlood()
	resOn := runOn(t, g, scheds, on, 5, 6, 2_000_000)
	if !resOff.Completed || !resOn.Completed {
		t.Fatal("runs incomplete")
	}
	if resOn.Transmissions >= resOff.Transmissions {
		t.Fatalf("duplicate suppression did not reduce transmissions: %d vs %d",
			resOn.Transmissions, resOff.Transmissions)
	}
}

// timerCounterRun executes one timer-protocol run and returns its result
// plus counters.
func timerCounterRun(t *testing.T, name string) (*sim.Result, int64, int64, []int64) {
	t.Helper()
	g := topology.Grid(6, 6, 0.8)
	p, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Graph:     g,
		Schedules: uniform(g.N(), 20, 42),
		Protocol:  p,
		M:         3, Coverage: 0.99, Seed: 99, MaxSlots: 200000,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	type counted interface {
		FloodCounters() (int64, int64)
		SuppressedPerNode() []int64
	}
	c := p.(counted)
	messages, suppressed := c.FloodCounters()
	return res, messages, suppressed, c.SuppressedPerNode()
}

// TestProtocolCountersModeInvariant pins the counter determinism claim in
// counters.go: message and suppression counts are identical across
// reruns.
func TestProtocolCountersModeInvariant(t *testing.T) {
	for _, name := range []string{"trickle", "dflood"} {
		t.Run(name, func(t *testing.T) {
			_, baseMsg, baseSupp, basePer := timerCounterRun(t, name)
			_, msg, supp, per := timerCounterRun(t, name)
			if msg != baseMsg || supp != baseSupp || !reflect.DeepEqual(per, basePer) {
				t.Errorf("rerun: counters (%d, %d) diverge from (%d, %d)", msg, supp, baseMsg, baseSupp)
			}
		})
	}
}

// TestInstrumentNeutralAndMirrored checks that attaching a telemetry
// registry does not perturb the run and that the registry counters mirror
// the protocol's own tallies.
func TestInstrumentNeutralAndMirrored(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	for _, name := range []string{"trickle", "dflood"} {
		run := func(reg *telemetry.Registry) (*sim.Result, int64, int64) {
			p, _ := New(name)
			if reg != nil {
				type instrumented interface {
					Instrument(*telemetry.Registry)
				}
				p.(instrumented).Instrument(reg)
			}
			res, err := sim.Run(sim.Config{
				Graph:     g,
				Schedules: uniform(g.N(), 20, 42),
				Protocol:  p,
				M:         3, Coverage: 0.99, Seed: 5, MaxSlots: 200000,
			})
			if err != nil {
				t.Fatal(err)
			}
			type counted interface {
				FloodCounters() (int64, int64)
			}
			msg, supp := p.(counted).FloodCounters()
			return res, msg, supp
		}
		plain, _, _ := run(nil)
		reg := telemetry.New()
		instrumented, msg, supp := run(reg)
		if !reflect.DeepEqual(plain, instrumented) {
			t.Errorf("%s: attaching telemetry changed the run", name)
		}
		snap := reg.Snapshot()
		if got := snap["flood.messages"]; got != msg {
			t.Errorf("%s: flood.messages = %d, protocol counted %d", name, got, msg)
		}
		if got := snap["flood."+name+".suppressed"]; got != supp {
			t.Errorf("%s: flood.%s.suppressed = %d, protocol counted %d", name, name, got, supp)
		}
	}
}
