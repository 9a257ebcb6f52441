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

// TestLinkByDistanceSpatialMatchesBrute pins the central claim of the
// link builder: it links exactly the pairs of the quadratic full-PRR scan,
// with the same PRR bits, and appends them in the scan's order, so the
// adjacency built is byte-identical (same links, same PRRs, same per-node
// list order), not just set-equal.
func TestLinkByDistanceSpatialMatchesBrute(t *testing.T) {
	for _, tc := range []struct {
		name   string
		radio  RadioModel
		minPRR float64
		maxPRR float64
	}{
		{"forest", ForestRadio(), 0.10, 0.95},
		{"forest-min0.5", ForestRadio(), 0.5, 0},
		{"openfield", OpenFieldRadio(), 0.10, 0.95},
		{"testbed-min0.05", testbedRadio(), 0.05, 0.95},
	} {
		for _, seed := range []uint64{1, 7, 42} {
			n := 700
			posRNG := rngutil.New(seed).SubName("positions")
			pos := make([]Point, n)
			for i := range pos {
				pos[i] = Point{X: 260 * posRNG.Float64(), Y: 260 * posRNG.Float64()}
			}
			build := func(link func(*Graph, RadioModel, float64, float64, *rngutil.Stream)) *Graph {
				g := New(n)
				g.Pos = pos
				link(g, tc.radio, tc.minPRR, tc.maxPRR, rngutil.New(seed).SubName("shadowing"))
				return g
			}
			brute := build(bruteLinkByDistance)
			spatial := build(linkByDistance)
			if brute.NumLinks() == 0 {
				t.Fatalf("%s seed %d: degenerate test, no links generated", tc.name, seed)
			}
			if !reflect.DeepEqual(brute.adj, spatial.adj) {
				t.Fatalf("%s seed %d: spatial-hash adjacency differs from brute force", tc.name, seed)
			}
			if err := spatial.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
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
