package topology

import (
	"testing"
)

func TestForestRadioShape(t *testing.T) {
	m := ForestRadio()
	// PRR must be ~1 very close and ~0 very far.
	if p := m.PRR(1, 0); p < 0.999 {
		t.Fatalf("PRR at 1m = %v, want ~1", p)
	}
	if p := m.PRR(200, 0); p > 0.001 {
		t.Fatalf("PRR at 200m = %v, want ~0", p)
	}
	// Monotone non-increasing in distance (no shadowing).
	prev := 1.1
	for d := 1.0; d < 100; d += 1 {
		p := m.PRR(d, 0)
		if p > prev+1e-12 {
			t.Fatalf("PRR not monotone at d=%v: %v > %v", d, p, prev)
		}
		if p < 0 || p > 1 {
			t.Fatalf("PRR out of range at d=%v: %v", d, p)
		}
		prev = p
	}
	// Positive shadowing (extra loss) lowers PRR at transitional distances.
	d := m.ConnectedRange(0.5)
	if m.PRR(d, 3) >= m.PRR(d, 0) {
		t.Fatal("positive shadow should reduce PRR")
	}
	if m.PRR(d, -3) <= m.PRR(d, 0) {
		t.Fatal("negative shadow should increase PRR")
	}
}

func TestConnectedRange(t *testing.T) {
	m := ForestRadio()
	r90 := m.ConnectedRange(0.9)
	r10 := m.ConnectedRange(0.1)
	if r90 <= 0 || r10 <= r90 {
		t.Fatalf("ranges inconsistent: r90=%v r10=%v", r90, r10)
	}
	// At the returned range, the PRR is close to the threshold.
	if p := m.PRR(r90, 0); p < 0.85 || p > 0.95 {
		t.Fatalf("PRR at ConnectedRange(0.9) = %v", p)
	}
}

func TestConnectedRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ConnectedRange(0) did not panic")
		}
	}()
	ForestRadio().ConnectedRange(0)
}

func TestOpenFieldReachesFarther(t *testing.T) {
	if OpenFieldRadio().ConnectedRange(0.5) <= ForestRadio().ConnectedRange(0.5) {
		t.Fatal("open-field radio should reach farther than forest radio")
	}
}

func TestGreenOrbsDeterministic(t *testing.T) {
	a := GreenOrbs(1)
	b := GreenOrbs(1)
	if a.N() != b.N() || a.NumLinks() != b.NumLinks() {
		t.Fatalf("same seed differs: %v vs %v", a, b)
	}
	ea, eb := a.Links(), b.Links()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	c := GreenOrbs(2)
	if c.NumLinks() == a.NumLinks() && len(c.Links()) > 0 && c.Links()[0] == a.Links()[0] {
		t.Log("warning: different seeds produced suspiciously similar graphs")
	}
}

func TestGreenOrbsCalibration(t *testing.T) {
	// The synthetic trace must match the aggregate features the paper's
	// evaluation relies on (see DESIGN.md substitution table).
	for seed := uint64(1); seed <= 3; seed++ {
		g := GreenOrbs(seed)
		s := g.Analyze()
		if s.Nodes != GreenOrbsNodes {
			t.Fatalf("seed %d: %d nodes, want %d", seed, s.Nodes, GreenOrbsNodes)
		}
		if !s.Connected {
			t.Fatalf("seed %d: disconnected", seed)
		}
		if s.MeanDegree < 6 || s.MeanDegree > 40 {
			t.Fatalf("seed %d: mean degree %v outside plausible GreenOrbs range", seed, s.MeanDegree)
		}
		if s.Diameter < 4 || s.Diameter > 40 {
			t.Fatalf("seed %d: diameter %d outside plausible range", seed, s.Diameter)
		}
		// Lossy links must exist (transitional region), and good links too.
		if s.PRR.Min > 0.5 {
			t.Fatalf("seed %d: no lossy links (min PRR %v)", seed, s.PRR.Min)
		}
		if s.PRR.Max < 0.9 {
			t.Fatalf("seed %d: no high-quality links (max PRR %v)", seed, s.PRR.Max)
		}
		if s.Transitional < 0.2 {
			t.Fatalf("seed %d: transitional fraction %v too small", seed, s.Transitional)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGenerateGreenOrbsConfigErrors(t *testing.T) {
	base := DefaultGreenOrbsConfig()
	bad := []GreenOrbsConfig{}
	c := base
	c.Nodes = 1
	bad = append(bad, c)
	c = base
	c.FieldX = 0
	bad = append(bad, c)
	c = base
	c.MinPRR = 0
	bad = append(bad, c)
	c = base
	c.MinPRR = 1
	bad = append(bad, c)
	c = base
	c.Clusters = 0
	bad = append(bad, c)
	for i, cfg := range bad {
		if _, err := GenerateGreenOrbs(cfg, 1); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestGreenOrbsMaxDegreeCap(t *testing.T) {
	cfg := DefaultGreenOrbsConfig()
	cfg.MaxDegree = 8
	g, err := GenerateGreenOrbs(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	over := 0
	for u := 0; u < g.N(); u++ {
		// ensureConnected may add a handful of bridges past the cap.
		if g.Degree(u) > cfg.MaxDegree+2 {
			over++
		}
	}
	if over > 0 {
		t.Fatalf("%d nodes exceed degree cap by >2", over)
	}
	if !g.IsConnected() {
		t.Fatal("capped graph disconnected")
	}
}

func TestTestbedPreset(t *testing.T) {
	g := Testbed(1)
	s := g.Analyze()
	if s.Nodes != TestbedNodes {
		t.Fatalf("nodes = %d", s.Nodes)
	}
	if !s.Connected {
		t.Fatal("testbed disconnected")
	}
	// Indoor testbeds are denser than the forest deployment.
	forest := GreenOrbs(1).Analyze()
	if s.MeanDegree <= forest.MeanDegree {
		t.Fatalf("testbed degree %.1f not above forest %.1f", s.MeanDegree, forest.MeanDegree)
	}
	if s.Diameter >= forest.Diameter {
		t.Fatalf("testbed diameter %d not below forest %d", s.Diameter, forest.Diameter)
	}
	// Determinism.
	if Testbed(1).NumLinks() != g.NumLinks() {
		t.Fatal("testbed not deterministic")
	}
}

func TestRandomGeometric(t *testing.T) {
	g, err := RandomGeometric(60, 80, 80, ForestRadio(), 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 60 || !g.IsConnected() {
		t.Fatalf("bad RGG: %v connected=%v", g, g.IsConnected())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Determinism.
	h, _ := RandomGeometric(60, 80, 80, ForestRadio(), 0.1, 3)
	if h.NumLinks() != g.NumLinks() {
		t.Fatal("RGG not deterministic")
	}
}

func TestRandomGeometricErrors(t *testing.T) {
	if _, err := RandomGeometric(1, 10, 10, ForestRadio(), 0.1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := RandomGeometric(10, 0, 10, ForestRadio(), 0.1, 1); err == nil {
		t.Fatal("zero field accepted")
	}
	if _, err := RandomGeometric(10, 10, 10, ForestRadio(), 0, 1); err == nil {
		t.Fatal("MinPRR=0 accepted")
	}
}

func TestCompleteHetero(t *testing.T) {
	g := CompleteHetero(30, 0.7, 0.15, 1)
	if g.NumLinks() != 30*29/2 {
		t.Fatalf("links = %d", g.NumLinks())
	}
	s := g.Analyze()
	if s.PRR.Mean < 0.6 || s.PRR.Mean > 0.8 {
		t.Fatalf("mean PRR %v drifted from 0.7", s.PRR.Mean)
	}
	if s.PRR.StdDev < 0.05 {
		t.Fatalf("PRR spread %v too narrow for std 0.15", s.PRR.StdDev)
	}
	if s.PRR.Min < 0.05 || s.PRR.Max > 1 {
		t.Fatalf("PRR outside clamp: [%v, %v]", s.PRR.Min, s.PRR.Max)
	}
	// Zero spread degenerates to near-uniform.
	u := CompleteHetero(10, 0.7, 0, 1)
	us := u.Analyze()
	if us.PRR.StdDev > 1e-9 {
		t.Fatalf("zero-std graph has spread %v", us.PRR.StdDev)
	}
	// Determinism.
	h := CompleteHetero(30, 0.7, 0.15, 1)
	if h.PRR(0, 1) != g.PRR(0, 1) {
		t.Fatal("CompleteHetero not deterministic")
	}
}

func TestRing(t *testing.T) {
	g := Ring(6, 0.9)
	if g.NumLinks() != 6 || g.Diameter() != 3 {
		t.Fatalf("ring wrong: links=%d diam=%d", g.NumLinks(), g.Diameter())
	}
	for i := 0; i < 6; i++ {
		if g.Degree(i) != 2 {
			t.Fatalf("node %d degree %d", i, g.Degree(i))
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { Grid(0, 3, 1) },
		func() { Line(0, 1) },
		func() { Star(1, 1) },
		func() { Complete(1, 1) },
		func() { CompleteHetero(1, 0.5, 0.1, 1) },
		func() { CompleteHetero(5, 0, 0.1, 1) },
		func() { CompleteHetero(5, 0.5, -1, 1) },
		func() { Ring(2, 0.5) },
	}
	for i, f := range cases {
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

func BenchmarkGreenOrbsGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = GreenOrbs(uint64(i))
	}
}

// BenchmarkScaledGreenOrbs10k times the 10k-node scaled GreenOrbs build,
// floodbench's opt-10k set-up, where link generation dominates.
func BenchmarkScaledGreenOrbs10k(b *testing.B) {
	cfg := ScaledGreenOrbsConfig(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateGreenOrbs(cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	g := GreenOrbs(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Analyze()
	}
}
