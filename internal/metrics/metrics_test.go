package metrics

import (
	"math"
	"testing"

	"ldcflood/internal/sim"
)

func fakeResult(proto string, delays []int64, failures int) *sim.Result {
	r := &sim.Result{
		Protocol:      proto,
		M:             len(delays),
		Delay:         delays,
		FirstHopDelay: make([]int64, len(delays)),
		LossFailures:  failures,
	}
	for i := range r.FirstHopDelay {
		if delays[i] >= 0 {
			r.FirstHopDelay[i] = 1
		} else {
			r.FirstHopDelay[i] = -1
		}
	}
	return r
}

func TestCombineErrors(t *testing.T) {
	if _, err := Combine(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	a := fakeResult("OPT", []int64{1, 2}, 0)
	b := fakeResult("DBAO", []int64{1, 2}, 0)
	if _, err := Combine([]*sim.Result{a, b}); err == nil {
		t.Fatal("mixed protocols accepted")
	}
	c := fakeResult("OPT", []int64{1}, 0)
	if _, err := Combine([]*sim.Result{a, c}); err == nil {
		t.Fatal("mixed M accepted")
	}
}

func TestCombineAverages(t *testing.T) {
	a := fakeResult("OPT", []int64{10, 20}, 4)
	b := fakeResult("OPT", []int64{30, 40}, 6)
	agg, err := Combine([]*sim.Result{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 2 || agg.Protocol != "OPT" {
		t.Fatalf("metadata: %+v", agg)
	}
	if agg.MeanDelayPerPacket[0] != 20 || agg.MeanDelayPerPacket[1] != 30 {
		t.Fatalf("per-packet means = %v", agg.MeanDelayPerPacket)
	}
	if agg.Failures != 5 {
		t.Fatalf("failures = %v", agg.Failures)
	}
	if agg.Delay.Mean != 25 {
		t.Fatalf("pooled mean = %v", agg.Delay.Mean)
	}
	if agg.CoveredFraction != 1 {
		t.Fatalf("covered = %v", agg.CoveredFraction)
	}
	if agg.MeanFirstHopPerPacket[0] != 1 {
		t.Fatalf("first hop = %v", agg.MeanFirstHopPerPacket)
	}
}

func TestCombineUncoveredPackets(t *testing.T) {
	a := fakeResult("OF", []int64{5, -1}, 0)
	agg, err := Combine([]*sim.Result{a})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(agg.MeanDelayPerPacket[1]) {
		t.Fatalf("uncovered packet mean should be NaN, got %v", agg.MeanDelayPerPacket[1])
	}
	if agg.CoveredFraction != 0.5 {
		t.Fatalf("covered = %v", agg.CoveredFraction)
	}
}

func TestLifetimeMonotoneInDuty(t *testing.T) {
	e := DefaultEnergyModel()
	prev := 0.0
	// Lifetime should increase as duty decreases.
	for _, duty := range []float64{1, 0.5, 0.2, 0.1, 0.05, 0.02} {
		lt := e.LifetimeSeconds(duty, 0.1)
		if lt <= prev {
			t.Fatalf("lifetime not increasing as duty falls: %v at duty %v", lt, duty)
		}
		prev = lt
	}
	// Roughly linear in 1/duty while radio power dominates.
	r1 := e.LifetimeSeconds(0.10, 0)
	r2 := e.LifetimeSeconds(0.05, 0)
	if ratio := r2 / r1; math.Abs(ratio-2) > 0.1 {
		t.Fatalf("halving duty should ~double lifetime, ratio %v", ratio)
	}
}

func TestLifetimePanics(t *testing.T) {
	e := DefaultEnergyModel()
	for i, f := range []func(){
		func() { e.LifetimeSeconds(0, 1) },
		func() { e.LifetimeSeconds(1.5, 1) },
		func() { e.LifetimeSeconds(0.5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNetworkingGainPeaks(t *testing.T) {
	// With flooding delay blowing up like C/duty² (duty-cycle delay × loss
	// amplification), the gain lifetime/delay must peak at an intermediate
	// duty cycle — the paper's "NOT always beneficial" message.
	e := DefaultEnergyModel()
	duties := []float64{0.50, 0.20, 0.10, 0.05, 0.02, 0.01}
	gains := make([]float64, len(duties))
	for i, d := range duties {
		// Delay floor (network diameter) plus super-linear duty-cycle
		// blow-up: the shape Fig. 7 and Fig. 10 measure.
		delaySlots := 2000 + 100/(d*d)
		_, _, gains[i] = e.NetworkingGain(d, delaySlots, 0.1)
	}
	best := 0
	for i, g := range gains {
		if g > gains[best] {
			best = i
		}
	}
	if best == 0 || best == len(gains)-1 {
		t.Fatalf("gain should peak at an interior duty cycle, peaked at %v (gains %v)", duties[best], gains)
	}
}

func TestNetworkingGainDegenerate(t *testing.T) {
	e := DefaultEnergyModel()
	_, _, gain := e.NetworkingGain(0.1, 0, 0)
	if !math.IsNaN(gain) {
		t.Fatalf("zero delay should yield NaN gain, got %v", gain)
	}
}
