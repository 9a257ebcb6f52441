package clocksync

import (
	"testing"

	"ldcflood/internal/topology"
)

func TestConfigValidation(t *testing.T) {
	g := topology.Line(3, 0.9)
	bad := []Config{
		{DriftPPMStd: -1, BeaconNoiseStd: 0, SyncInterval: 10, Horizon: 100, SamplesPerInterval: 4},
		{DriftPPMStd: 1, BeaconNoiseStd: -1, SyncInterval: 10, Horizon: 100, SamplesPerInterval: 4},
		{DriftPPMStd: 1, BeaconNoiseStd: 0, SyncInterval: 0, Horizon: 100, SamplesPerInterval: 4},
		{DriftPPMStd: 1, BeaconNoiseStd: 0, SyncInterval: 200, Horizon: 100, SamplesPerInterval: 4},
		{DriftPPMStd: 1, BeaconNoiseStd: 0, SyncInterval: 10, Horizon: 100, SamplesPerInterval: 0},
	}
	for i, cfg := range bad {
		if _, err := Simulate(g, cfg, 1); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	if _, err := Simulate(g, DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	g := topology.GreenOrbs(4)
	a, err := Simulate(g, DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(g, DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.AllErrors.Mean != b.AllErrors.Mean || a.AllErrors.Max != b.AllErrors.Max {
		t.Fatal("not deterministic")
	}
	c, _ := Simulate(g, DefaultConfig(), 8)
	if a.AllErrors.Mean == c.AllErrors.Mean {
		t.Log("warning: different seeds gave identical means")
	}
}

func TestErrorGrowsWithDriftAndInterval(t *testing.T) {
	g := topology.Line(10, 0.9)
	base := DefaultConfig()
	lowDrift := base
	lowDrift.DriftPPMStd = 5
	highDrift := base
	highDrift.DriftPPMStd = 100
	rLow, err := Simulate(g, lowDrift, 1)
	if err != nil {
		t.Fatal(err)
	}
	rHigh, err := Simulate(g, highDrift, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rHigh.AllErrors.Mean <= rLow.AllErrors.Mean {
		t.Fatalf("drift did not raise error: %v vs %v", rHigh.AllErrors.Mean, rLow.AllErrors.Mean)
	}
	longIv := base
	longIv.SyncInterval = 600
	rLong, err := Simulate(g, longIv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rLong.AllErrors.Mean <= rLow.AllErrors.Mean {
		t.Fatalf("longer interval did not raise error: %v vs base-drift %v", rLong.AllErrors.Mean, rLow.AllErrors.Mean)
	}
}

func TestLinkErrorsCoverAllLinks(t *testing.T) {
	g := topology.Grid(3, 3, 0.9)
	res, err := Simulate(g, DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LinkErrors) != g.NumLinks() {
		t.Fatalf("%d link summaries for %d links", len(res.LinkErrors), g.NumLinks())
	}
	for i, s := range res.LinkErrors {
		if s.N == 0 || s.Min < 0 {
			t.Fatalf("link %d summary degenerate: %+v", i, s)
		}
	}
}

func TestMissProbability(t *testing.T) {
	g := topology.Line(5, 0.9)
	res, err := Simulate(g, DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Huge slots: nothing misses. Tiny slots: everything misses.
	if p := res.MissProbability(3600); p != 0 {
		t.Fatalf("hour-long slots should never miss, got %v", p)
	}
	if p := res.MissProbability(1e-9); p < 0.99 {
		t.Fatalf("nanosecond slots should always miss, got %v", p)
	}
	// Monotone in slot duration.
	p10 := res.MissProbability(0.010)
	p100 := res.MissProbability(0.100)
	if p100 > p10 {
		t.Fatalf("longer slots should miss less: %v vs %v", p100, p10)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive slot accepted")
		}
	}()
	res.MissProbability(0)
}

func TestMissProbabilityEmpty(t *testing.T) {
	var r Result
	if r.MissProbability(1) != 0 {
		t.Fatal("empty result should report 0")
	}
}

func BenchmarkSimulate(b *testing.B) {
	g := topology.GreenOrbs(1)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(g, cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEndToEndWithSim(t *testing.T) {
	// The full bridge: clock model -> miss probability -> sim sync error.
	g := topology.GreenOrbs(1)
	cfg := DefaultConfig()
	cfg.SyncInterval = 300 // sloppy provisioning to get a visible error
	res, err := Simulate(g, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := res.MissProbability(0.010)
	if p < 0 || p >= 1 {
		t.Fatalf("miss probability %v outside [0,1)", p)
	}
}
