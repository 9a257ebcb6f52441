package topology

import (
	"cmp"
	"math"
	"reflect"
	"testing"
	"time"

	"ldcflood/internal/rngutil"
)

// withSpatialThreshold pins the exact/grid stitcher crossover for the
// duration of fn so both stitchers can be forced on the same topology.
func withSpatialThreshold(threshold int, fn func()) {
	old := spatialHashMinNodes
	spatialHashMinNodes = threshold
	defer func() { spatialHashMinNodes = old }()
	fn()
}

// bruteLinkByDistance is the reference linkByDistance is held to: every
// u<v pair in order, the full PRR chain, AddLink. It shares nothing with
// the spatial hash, the SNR cut or the direct appends.
func bruteLinkByDistance(g *Graph, radio RadioModel, minPRR, maxPRR float64, shadowRNG *rngutil.Stream) {
	maxDist := radio.ConnectedRange(minPRR) * math.Pow(10, 3*radio.ShadowStd/(10*radio.Exponent))
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			d := g.Pos[u].Dist(g.Pos[v])
			if d > maxDist {
				continue
			}
			shadow := shadowRNG.Sub(uint64(u)<<32|uint64(v)).NormMeanStd(0, radio.ShadowStd)
			prr := radio.PRR(d, shadow)
			if prr >= minPRR {
				if prr > 1 {
					prr = 1
				}
				if maxPRR > 0 && prr > maxPRR {
					prr = maxPRR
				}
				g.AddLink(u, v, prr)
			}
		}
	}
}

// linkFieldPositions places n nodes uniformly on a field×field square,
// then stacks every 10th node on its predecessor and puts every 10th+5
// node half a meter from its predecessor: coincident pairs (d = 0) and
// pairs inside D0, where PathLoss clamps.
func linkFieldPositions(n int, field float64, seed uint64) []Point {
	posRNG := rngutil.New(seed).SubName("positions")
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{X: field * posRNG.Float64(), Y: field * posRNG.Float64()}
		switch {
		case i > 0 && i%10 == 0:
			pos[i] = pos[i-1]
		case i%10 == 5:
			pos[i] = Point{X: pos[i-1].X + 0.3, Y: pos[i-1].Y + 0.4}
		}
	}
	return pos
}

// checkLinkMatchesBrute links pos with linkByDistance and with the
// brute-force reference and requires byte-identical adjacency.
func checkLinkMatchesBrute(t *testing.T, pos []Point, radio RadioModel, minPRR, maxPRR float64, seed uint64) *Graph {
	t.Helper()
	build := func(link func(*Graph, RadioModel, float64, float64, *rngutil.Stream)) *Graph {
		g := New(len(pos))
		g.Pos = pos
		link(g, radio, minPRR, maxPRR, rngutil.New(seed).SubName("shadowing"))
		return g
	}
	brute := build(bruteLinkByDistance)
	spatial := build(linkByDistance)
	if !reflect.DeepEqual(brute.adj, spatial.adj) {
		t.Fatalf("radio %+v, minPRR %v, maxPRR %v, seed %d: spatial-hash adjacency differs from brute force",
			radio, minPRR, maxPRR, seed)
	}
	return spatial
}

// TestLinkByDistanceSpatialMatchesBrute pins the central claim of the
// link builder: it links exactly the pairs of the quadratic full-PRR scan,
// with the same PRR bits, and appends them in the scan's order, so the
// adjacency built is byte-identical (same links, same PRRs, same per-node
// list order), not just set-equal. The cases cover the shadow filter's
// edges: no shadowing (the filter is off), a mild exponent that puts the
// whole field in range, thresholds near both ends, and coincident and
// sub-D0 pairs.
func TestLinkByDistanceSpatialMatchesBrute(t *testing.T) {
	exponent2 := ForestRadio()
	exponent2.Exponent = 2.0
	noShadow := ForestRadio()
	noShadow.ShadowStd = 0
	for _, tc := range []struct {
		name   string
		radio  RadioModel
		minPRR float64
		maxPRR float64
	}{
		{"forest", ForestRadio(), 0.10, 0.95},
		{"forest-min0.5", ForestRadio(), 0.5, 0},
		{"forest-shadow0", noShadow, 0.10, 0.95},
		{"exponent2", exponent2, 0.10, 0.95},
		{"openfield", OpenFieldRadio(), 0.10, 0.95},
		{"testbed-min0.05", testbedRadio(), 0.05, 0.95},
		{"testbed-min0.01", testbedRadio(), 0.01, 0.95},
		{"testbed-min0.9", testbedRadio(), 0.9, 0},
	} {
		for _, seed := range []uint64{1, 7, 42} {
			spatial := checkLinkMatchesBrute(t, linkFieldPositions(700, 260, seed), tc.radio, tc.minPRR, tc.maxPRR, seed)
			if spatial.NumLinks() == 0 {
				t.Fatalf("%s seed %d: degenerate test, no links generated", tc.name, seed)
			}
			if err := spatial.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
		}
	}
}

// FuzzLinkByDistance holds linkByDistance to the brute-force scan for
// arbitrary path-loss exponents, shadowing, PRR bounds and seeds on 150
// nodes. The field is four times the link builder's reach where that is
// finite, so candidates fall on both sides of it.
func FuzzLinkByDistance(f *testing.F) {
	f.Add(3.5, 4.0, 0.10, 0.95, uint64(1))
	f.Add(2.4, 2.0, 0.10, 0.95, uint64(2))
	f.Add(2.8, 5.0, 0.05, 0.95, uint64(3))
	f.Add(2.0, 4.0, 0.01, 0.0, uint64(4))
	f.Add(3.5, 0.0, 0.9, 0.0, uint64(5))
	f.Add(3.5, 12.0, 0.5, 0.0, uint64(6))
	f.Add(-1.0, 4.0, 0.10, 0.95, uint64(7))
	f.Fuzz(func(t *testing.T, exponent, shadowStd, minPRR, maxPRR float64, seed uint64) {
		if !(minPRR > 0 && minPRR < 1) {
			return // ConnectedRange's domain; the generators reject the rest
		}
		radio := ForestRadio()
		radio.Exponent, radio.ShadowStd = exponent, shadowStd
		field := 260.0
		if r := radio.ConnectedRange(minPRR) * math.Pow(10, 3*shadowStd/(10*exponent)); r > 0 && r < 1e6 {
			field = 4 * r
		}
		checkLinkMatchesBrute(t, linkFieldPositions(150, field, seed), radio, minPRR, maxPRR, seed)
	})
}

// TestShadowFilterRejectsOnlyExactRejections checks the filter's reject
// predicate draw by draw: for 10^5 (d, u, v) per radio, uniform over the
// reach's disk and adversarial at band edges, threshold ulps and the
// sign test's quarter points, every rejection must also be one of the
// exact chain (Box–Muller as rngutil.Stream.Norm draws it, SNR, the cut).
// It also requires the filter to settle most of the exact chain's
// rejections among the uniform draws; a filter that never fires fails.
func TestShadowFilterRejectsOnlyExactRejections(t *testing.T) {
	// The predicate's Box–Muller is Norm's: the first two uniforms of the
	// stream, in order.
	for k := uint64(0); k < 100; k++ {
		s := rngutil.New(k)
		draw := *s
		u, v := draw.Float64(), draw.Float64()
		if z := math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v); z != s.Norm() {
			t.Fatalf("stream %d: Norm does not draw √(−2 ln u)·cos(2πv) from its first two uniforms", k)
		}
	}
	exponent2 := ForestRadio()
	exponent2.Exponent = 2.0
	for _, tc := range []struct {
		name   string
		radio  RadioModel
		minPRR float64
	}{
		{"forest", ForestRadio(), 0.10},
		{"openfield", OpenFieldRadio(), 0.10},
		{"testbed-min0.01", testbedRadio(), 0.01},
		{"testbed-min0.9", testbedRadio(), 0.9},
		{"exponent2", exponent2, 0.10},
	} {
		radio := tc.radio
		maxDist := radio.ConnectedRange(tc.minPRR) * math.Pow(10, 3*radio.ShadowStd/(10*radio.Exponent))
		snrCut := radio.snrCut(tc.minPRR)
		f := newShadowFilter(radio, maxDist, snrCut)
		rng := rngutil.New(1)
		// ulps steps x by k units in the last place, up for k > 0.
		ulps := func(x float64, k int) float64 {
			for ; k > 0; k-- {
				x = math.Nextafter(x, math.Inf(1))
			}
			for ; k < 0; k++ {
				x = math.Nextafter(x, math.Inf(-1))
			}
			return x
		}
		exactRejects, fired := 0, 0
		for i := 0; i < 100000; i++ {
			d := maxDist * math.Sqrt(rng.Float64())
			u, v := rng.Float64(), rng.Float64()
			adversarial := i%2 == 1
			if adversarial {
				// A band edge, a u within ulps of the band's threshold,
				// and a v within ulps of a sign-test bound or of 1/2,
				// where the shadow is −√(−2 ln u)·ShadowStd.
				d = ulps(float64(rng.Intn(shadowBands+1))/f.scale, rng.Intn(9)-4)
				u = ulps(f.cut(d), rng.Intn(9)-4)
				v = ulps([]float64{0.25 - 1e-9, 0.75 + 1e-9, 0.25, 0.75, 0.5}[rng.Intn(5)], rng.Intn(9)-4)
			}
			if !(u > 0 && u < 1) {
				continue // Norm redraws a u of 0; the stream never yields 1
			}
			shadow := 0 + radio.ShadowStd*(math.Sqrt(-2*math.Log(u))*math.Cos(2*math.Pi*v))
			exact := radio.SNR(d, shadow) < snrCut
			cut := f.cut(d)
			reject := cut < 1 && rejectDraw(cut, u, v)
			if reject && !exact {
				t.Fatalf("%s: filter rejects d=%v u=%v v=%v (cut %v) but the exact SNR %v clears the cut %v",
					tc.name, d, u, v, cut, radio.SNR(d, shadow), snrCut)
			}
			if !adversarial && exact {
				exactRejects++
				if reject {
					fired++
				}
			}
		}
		share := float64(fired) / float64(exactRejects)
		t.Logf("%s: filter settles %d of %d exact rejections (%.1f%%)", tc.name, fired, exactRejects, 100*share)
		if share < 0.5 {
			t.Errorf("%s: filter settles %.1f%% of the exact rejections, want most", tc.name, 100*share)
		}
	}
}

// TestGeneratorsSpatialEquivalence runs the full generators (placement,
// linking, degree cap, connectivity stitch, sort, validate) with either
// stitcher forced. The seeds are chosen so the radio draw already yields a
// connected graph — there both stitchers no-op, so spatialHashMinNodes
// must not reach anything else and the end-to-end outputs must match
// exactly.
func TestGeneratorsSpatialEquivalence(t *testing.T) {
	gen := func(threshold int, f func() *Graph) *Graph {
		var g *Graph
		withSpatialThreshold(threshold, func() { g = f() })
		return g
	}
	for _, tc := range []struct {
		name string
		f    func() *Graph
	}{
		{"scaled-greenorbs", func() *Graph {
			g, err := GenerateGreenOrbs(ScaledGreenOrbsConfig(700), 3)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"rgg", func() *Graph {
			g, err := RandomGeometric(600, 200, 200, ForestRadio(), 0.10, 9)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			brute := gen(1<<30, tc.f)
			spatial := gen(1, tc.f)
			if !reflect.DeepEqual(brute.adj, spatial.adj) {
				t.Fatal("spatial-hash generator output differs from brute force")
			}
			if !reflect.DeepEqual(brute.Pos, spatial.Pos) {
				t.Fatal("positions differ between regimes")
			}
		})
	}
}

// TestScaledGreenOrbsConfig checks the constant-density scaling contract:
// a scaled instance stays connected and keeps per-node degree statistics in
// the ballpark of the 298-node calibration.
func TestScaledGreenOrbsConfig(t *testing.T) {
	base := GreenOrbs(1)
	baseDeg := float64(2*base.NumLinks()) / float64(base.N())

	nodes := 2000
	if testing.Short() {
		nodes = 1000
	}
	cfg := ScaledGreenOrbsConfig(nodes)
	if cfg.Nodes != nodes {
		t.Fatalf("scaled config has %d nodes, want %d", cfg.Nodes, nodes)
	}
	area := cfg.FieldX * cfg.FieldY
	baseCfg := DefaultGreenOrbsConfig()
	baseArea := baseCfg.FieldX * baseCfg.FieldY
	wantArea := baseArea * float64(nodes) / float64(GreenOrbsNodes)
	if area < 0.9*wantArea || area > 1.1*wantArea {
		t.Fatalf("scaled area %.0f not proportional to node count (want ~%.0f)", area, wantArea)
	}
	g, err := GenerateGreenOrbs(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if comps := g.Components(); len(comps) != 1 {
		t.Fatalf("scaled graph has %d components", len(comps))
	}
	deg := float64(2*g.NumLinks()) / float64(g.N())
	if deg < 0.5*baseDeg || deg > 2*baseDeg {
		t.Fatalf("scaled mean degree %.1f far from calibration %.1f", deg, baseDeg)
	}
}

// stitchReference is ensureConnectedGrid with the ring walk replaced by an
// exhaustive scan: for each u, the node outside u's component that is
// closest, ties going to the one the ring walk visits first (ring, then
// row, then column, then id), with no pruning and no extent bound. As in
// the walk, a later u only wins if strictly closer.
func stitchReference(g *Graph, radio RadioModel, minPRR float64) {
	sg := newSpatialGrid(g.Pos, radio.ConnectedRange(minPRR))
	type visit struct {
		d            float64
		r, dy, dx, v int
	}
	less := func(a, b visit) bool {
		return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.r, b.r), cmp.Compare(a.dy, b.dy),
			cmp.Compare(a.dx, b.dx), cmp.Compare(a.v, b.v)) < 0
	}
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			return
		}
		giant := 0
		for ci, comp := range comps {
			if len(comp) > len(comps[giant]) {
				giant = ci
			}
		}
		compOf := make([]int, g.N())
		for ci, comp := range comps {
			for _, v := range comp {
				compOf[v] = ci
			}
		}
		for ci, comp := range comps {
			if ci == giant {
				continue
			}
			bestU, bestV, bestD := -1, -1, math.Inf(1)
			for _, u := range comp {
				cu := sg.key(g.Pos[u])
				first := visit{d: math.Inf(1)}
				for v := range g.Pos {
					if compOf[v] == ci {
						continue
					}
					cv := sg.key(g.Pos[v])
					dx, dy := int(cv[0]-cu[0]), int(cv[1]-cu[1])
					if c := (visit{g.Pos[u].Dist(g.Pos[v]), max(dx, -dx, dy, -dy), dy, dx, v}); less(c, first) {
						first = c
					}
				}
				if first.d < bestD {
					bestU, bestV, bestD = u, first.v, first.d
				}
			}
			g.AddLink(bestU, bestV, clamp(radio.PRR(bestD, 0), minPRR, 0.95))
		}
	}
}

// TestStitcherMatchesExhaustiveOrder holds the grid stitcher's ring walk
// (occupied cells only, bounded by the occupied extent) to the exhaustive
// scan in ring-visit order on fields sparse enough that many components
// need bridges, some of them across hundreds of empty cells.
func TestStitcherMatchesExhaustiveOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		field float64
		radio RadioModel
	}{
		{"forest", 600, 1000, ForestRadio()},
		{"openfield", 600, 4000, OpenFieldRadio()},
		{"forest-sparse", 600, 20000, ForestRadio()},
	} {
		for _, seed := range []uint64{1, 2} {
			posRNG := rngutil.New(seed).SubName("positions")
			g := New(tc.n)
			g.Pos = make([]Point, tc.n)
			for i := range g.Pos {
				g.Pos[i] = Point{X: tc.field * posRNG.Float64(), Y: tc.field * posRNG.Float64()}
			}
			linkByDistance(g, tc.radio, 0.10, 0, rngutil.New(seed).SubName("shadowing"))
			if len(g.Components()) < 10 {
				t.Fatalf("%s seed %d: %d components, too few to exercise the stitcher", tc.name, seed, len(g.Components()))
			}
			ref := g.Clone()
			ensureConnectedGrid(g, tc.radio, 0.10)
			stitchReference(ref, tc.radio, 0.10)
			if !reflect.DeepEqual(g.adj, ref.adj) {
				t.Fatalf("%s seed %d: ring-walk bridges differ from the exhaustive scan", tc.name, seed)
			}
		}
	}
}

// finishWithin runs f and fails the test if it has not returned within
// limit; the stitcher's failure mode is a loop that never ends.
func finishWithin(t *testing.T, limit time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%s did not finish within %v", what, limit)
	}
}

// TestStitcherSparseField is the case the ring walk's old cutoff and cubic
// cost broke: 520 nodes on a 200 km square, nearly every node its own
// component and the nearest neighbor hundreds of cells away. It must come
// back connected within seconds (the stitcher alone takes milliseconds).
func TestStitcherSparseField(t *testing.T) {
	var g *Graph
	var err error
	finishWithin(t, 30*time.Second, "RandomGeometric(520, 2e5, 2e5, ...)", func() {
		g, err = RandomGeometric(520, 2e5, 2e5, ForestRadio(), 0.10, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if comps := g.Components(); len(comps) != 1 {
		t.Fatalf("stitched graph has %d components", len(comps))
	}
}

// TestStitcherReachesExtentCorner puts the only other node on the last
// ring inside the occupied extent: the walk must search that ring too.
func TestStitcherReachesExtentCorner(t *testing.T) {
	g := New(2)
	g.Pos = []Point{{0, 0}, {1000, 1000}}
	finishWithin(t, 10*time.Second, "stitching two corner nodes", func() {
		ensureConnectedGrid(g, ForestRadio(), 0.10)
	})
	if !g.HasLink(0, 1) {
		t.Fatal("corner nodes were not bridged")
	}
}
