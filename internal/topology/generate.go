package topology

import (
	"fmt"
	"math"
	"slices"

	"ldcflood/internal/rngutil"
)

// GreenOrbsNodes is the node count of the GreenOrbs deployment trace used
// throughout the paper's evaluation (Section V-B).
const GreenOrbsNodes = 298

// GreenOrbsConfig parameterizes the synthetic GreenOrbs-like topology.
// The defaults (DefaultGreenOrbsConfig) are calibrated so the aggregate
// features the paper's evaluation depends on — node count, mean degree,
// PRR spread with a lossy tail, and a multi-hop diameter — match what the
// GreenOrbs system papers report for the forest deployment.
type GreenOrbsConfig struct {
	Nodes     int        // number of sensors including the source (node 0)
	FieldX    float64    // field width, meters
	FieldY    float64    // field height, meters
	Clusters  int        // number of dense clusters (forest plots)
	ClusterR  float64    // cluster scatter radius, meters
	Uniform   float64    // fraction of nodes placed uniformly instead of clustered
	Radio     RadioModel // propagation model
	MinPRR    float64    // links with expected PRR below this are dropped
	MaxPRR    float64    // ceiling on link PRR (real radios never reach 1), 0 = uncapped
	MaxDegree int        // cap on neighbor count (densest regions), 0 = uncapped
}

// DefaultGreenOrbsConfig returns the calibrated defaults.
func DefaultGreenOrbsConfig() GreenOrbsConfig {
	return GreenOrbsConfig{
		Nodes:     GreenOrbsNodes,
		FieldX:    130,
		FieldY:    130,
		Clusters:  9,
		ClusterR:  18,
		Uniform:   0.35,
		Radio:     ForestRadio(),
		MinPRR:    0.10,
		MaxPRR:    0.95,
		MaxDegree: 0,
	}
}

// ScaledGreenOrbsConfig returns the GreenOrbs calibration scaled to the
// given node count at constant node density: the field grows with √nodes
// and the cluster count with the area, while radio, PRR bounds and cluster
// radius stay fixed — so per-node degree statistics match the 298-node
// trace and only the network's extent (hop diameter, flooding depth)
// grows. This is the scale-workload generator behind cmd/topogen -nodes
// and cmd/engbench -scale (10k–100k nodes). Link generation uses the
// spatial hash at every size and the connectivity stitcher switches to
// its grid search from spatialHashMinNodes up, so building a 100k-node
// instance is O(n).
func ScaledGreenOrbsConfig(nodes int) GreenOrbsConfig {
	cfg := DefaultGreenOrbsConfig()
	if nodes <= 0 {
		return cfg
	}
	factor := float64(nodes) / float64(GreenOrbsNodes)
	cfg.Nodes = nodes
	cfg.FieldX *= math.Sqrt(factor)
	cfg.FieldY *= math.Sqrt(factor)
	if c := int(math.Round(float64(cfg.Clusters) * factor)); c >= 1 {
		cfg.Clusters = c
	}
	return cfg
}

// GreenOrbs builds the synthetic 298-node GreenOrbs-like trace with default
// calibration. The same seed always yields the same topology.
func GreenOrbs(seed uint64) *Graph {
	g, err := GenerateGreenOrbs(DefaultGreenOrbsConfig(), seed)
	if err != nil {
		// The default configuration is tested to always succeed.
		panic("topology: default GreenOrbs generation failed: " + err.Error())
	}
	return g
}

// GenerateGreenOrbs builds a synthetic forest topology per cfg. The result
// is always connected (bridging links are added between components if the
// radio draw leaves the graph split). An error is returned for invalid
// configuration.
func GenerateGreenOrbs(cfg GreenOrbsConfig, seed uint64) (*Graph, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("topology: GreenOrbs needs >= 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.FieldX <= 0 || cfg.FieldY <= 0 {
		return nil, fmt.Errorf("topology: non-positive field %vx%v", cfg.FieldX, cfg.FieldY)
	}
	if cfg.MinPRR <= 0 || cfg.MinPRR >= 1 {
		return nil, fmt.Errorf("topology: MinPRR %v outside (0,1)", cfg.MinPRR)
	}
	if cfg.Clusters < 1 {
		return nil, fmt.Errorf("topology: need >= 1 cluster")
	}
	root := rngutil.New(seed)
	posRNG := root.SubName("positions")
	shadowRNG := root.SubName("shadowing")

	g := New(cfg.Nodes)
	g.Name = fmt.Sprintf("greenorbs-synthetic(seed=%d)", seed)
	g.Pos = make([]Point, cfg.Nodes)

	// Cluster centers, kept away from the field border.
	centers := make([]Point, cfg.Clusters)
	for i := range centers {
		centers[i] = Point{
			X: cfg.FieldX * (0.12 + 0.76*posRNG.Float64()),
			Y: cfg.FieldY * (0.12 + 0.76*posRNG.Float64()),
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		if posRNG.Float64() < cfg.Uniform {
			g.Pos[i] = Point{X: cfg.FieldX * posRNG.Float64(), Y: cfg.FieldY * posRNG.Float64()}
			continue
		}
		c := centers[posRNG.Intn(len(centers))]
		p := Point{
			X: c.X + posRNG.NormMeanStd(0, cfg.ClusterR),
			Y: c.Y + posRNG.NormMeanStd(0, cfg.ClusterR),
		}
		p.X = clamp(p.X, 0, cfg.FieldX)
		p.Y = clamp(p.Y, 0, cfg.FieldY)
		g.Pos[i] = p
	}

	linkByDistance(g, cfg.Radio, cfg.MinPRR, cfg.MaxPRR, shadowRNG)
	if cfg.MaxDegree > 0 {
		capDegree(g, cfg.MaxDegree)
	}
	ensureConnected(g, cfg.Radio, cfg.MinPRR)
	g.SortNeighbors()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// spatialHashMinNodes is the node count from which ensureConnected
// switches from the exact global closest-pair stitcher (O(passes × n²))
// to the grid stitcher, ensureConnectedGrid. The two may choose different
// bridge links, so the threshold is part of the output contract: the
// committed small presets (GreenOrbs, Testbed) stay on the exact path.
// Link generation does not consult it — linkByDistance uses the spatial
// hash at every size. A variable, not a const, so the equivalence tests
// can pin both stitchers against each other on the same topology.
var spatialHashMinNodes = 512

// spatialGrid buckets node indices by ⌊pos/cell⌋ for O(1) neighborhood
// queries during link generation and connectivity stitching. Cell lists
// hold node ids in ascending order (nodes are inserted in id order).
type spatialGrid struct {
	cell  float64
	cells map[[2]int32][]int32
}

// newSpatialGrid builds a grid over pos with the given cell size. A cell
// that is not a positive finite number puts every node in one cell.
func newSpatialGrid(pos []Point, cell float64) *spatialGrid {
	if !(cell > 0) || math.IsInf(cell, 0) {
		cell = math.Inf(1)
	}
	sg := &spatialGrid{cell: cell, cells: make(map[[2]int32][]int32, len(pos)/4+1)}
	for i, p := range pos {
		k := sg.key(p)
		sg.cells[k] = append(sg.cells[k], int32(i))
	}
	return sg
}

func (sg *spatialGrid) key(p Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / sg.cell)), int32(math.Floor(p.Y / sg.cell))}
}

// linkByDistance links a graph that has positions but no links yet: it
// adds every link whose shadowed PRR clears minPRR, clamped to maxPRR
// when positive. Each unordered pair draws its shadowing from a
// sub-stream keyed by the pair, so the result does not depend on
// iteration order. Pairs farther than maxDist, where even a very lucky (-3σ) shadow
// draw cannot reach minPRR, are skipped without consuming randomness.
//
// A spatial hash with cell size maxDist enumerates the candidates: the
// 3×3 neighborhood of u's cell covers every in-range pair, so the cost is
// O(n) at constant density. Every unordered pair is visited once, so
// links are appended without AddLink's duplicate search; Validate, which
// every generator runs last, still rejects duplicates and asymmetry.
//
// The adjacency lists come out byte-identical to a plain u<v pair scan's
// (spatial_test.go keeps that scan as the reference): u's row holds its
// links to lower ids, appended in ascending order by the outer loop, then
// its links to higher ids, appended here in cell order and sorted
// before the loop moves on.
func linkByDistance(g *Graph, radio RadioModel, minPRR, maxPRR float64, shadowRNG *rngutil.Stream) {
	maxDist := radio.ConnectedRange(minPRR) * math.Pow(10, 3*radio.ShadowStd/(10*radio.Exponent))
	snrCut := radio.snrCut(minPRR)
	sg := newSpatialGrid(g.Pos, maxDist)
	for u, pu := range g.Pos {
		ck := sg.key(pu)
		lower := len(g.adj[u])
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				for _, v := range sg.cells[[2]int32{ck[0] + dx, ck[1] + dy}] {
					if int(v) <= u {
						continue
					}
					if d := pu.Dist(g.Pos[v]); !(d > maxDist) {
						tryLink(g, radio, minPRR, maxPRR, snrCut, shadowRNG, u, int(v), d)
					}
				}
			}
		}
		slices.SortFunc(g.adj[u][lower:], func(a, b Link) int { return a.To - b.To })
	}
	g.csr = nil
}

// tryLink is linkByDistance's per-pair body for a pair at distance d:
// draw the pair-keyed shadow, reject at once below the SNR cut, else link
// if the exact PRR clears minPRR.
func tryLink(g *Graph, radio RadioModel, minPRR, maxPRR, snrCut float64, shadowRNG *rngutil.Stream, u, v int, d float64) {
	pairRNG := shadowRNG.SubValue(uint64(u)<<32 | uint64(v))
	snr := radio.SNR(d, pairRNG.NormMeanStd(0, radio.ShadowStd))
	if snr < snrCut {
		return
	}
	prr := radio.prrFromSNR(snr)
	if prr >= minPRR {
		if prr > 1 {
			prr = 1
		}
		if maxPRR > 0 && prr > maxPRR {
			prr = maxPRR
		}
		g.adj[u] = append(g.adj[u], Link{To: v, PRR: prr})
		g.adj[v] = append(g.adj[v], Link{To: u, PRR: prr})
	}
}

// capDegree trims each node's adjacency to the maxDegree best links by PRR,
// keeping symmetry: a link survives only if it is within both endpoints'
// kept sets.
func capDegree(g *Graph, maxDegree int) {
	kept := make(map[[2]int]bool) // directed picks u→v
	for u := 0; u < g.N(); u++ {
		links := append([]Link(nil), g.Neighbors(u)...)
		// Highest PRR first; stable on node id for determinism.
		for i := 1; i < len(links); i++ {
			for j := i; j > 0 && (links[j].PRR > links[j-1].PRR ||
				(links[j].PRR == links[j-1].PRR && links[j].To < links[j-1].To)); j-- {
				links[j], links[j-1] = links[j-1], links[j]
			}
		}
		if len(links) > maxDegree {
			links = links[:maxDegree]
		}
		for _, l := range links {
			kept[[2]int{u, l.To}] = true
		}
	}
	for _, e := range g.Links() {
		if !kept[[2]int{e.U, e.V}] || !kept[[2]int{e.V, e.U}] {
			g.RemoveLink(e.U, e.V)
		}
	}
}

// ensureConnected stitches components together by linking the closest
// cross-component pair with a mid-quality link until one component remains.
// The PRR assigned is the shadow-free model value clamped into
// [minPRR, 0.95] so the bridge behaves like a plausible marginal link.
//
// Above spatialHashMinNodes the exact global closest-pair scan (O(passes ×
// n²)) is replaced by a grid-accelerated stitcher that attaches each minor
// component to its nearest outside node; the committed small presets
// (GreenOrbs, Testbed) stay on the exact path and are byte-identical to
// earlier releases.
func ensureConnected(g *Graph, radio RadioModel, minPRR float64) {
	if g.N() >= spatialHashMinNodes && g.Pos != nil {
		ensureConnectedGrid(g, radio, minPRR)
		return
	}
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			return
		}
		// Find the globally closest pair spanning the first component and
		// any other component.
		compOf := make([]int, g.N())
		for ci, comp := range comps {
			for _, v := range comp {
				compOf[v] = ci
			}
		}
		bestU, bestV, bestD := -1, -1, math.Inf(1)
		for _, u := range comps[0] {
			for v := 0; v < g.N(); v++ {
				if compOf[v] == 0 {
					continue
				}
				d := g.Pos[u].Dist(g.Pos[v])
				if d < bestD {
					bestU, bestV, bestD = u, v, d
				}
			}
		}
		prr := clamp(radio.PRR(bestD, 0), minPRR, 0.95)
		g.AddLink(bestU, bestV, prr)
	}
}

// ensureConnectedGrid is the large-topology connectivity stitcher: every
// component except the largest links to the nearest node outside itself,
// found with an expanding-ring search over a spatial grid, and passes
// repeat until one component remains (components at least halve per pass;
// one pass suffices in practice). Deterministic: ring cells and their
// occupants are visited in a fixed order and ties keep the first find.
func ensureConnectedGrid(g *Graph, radio RadioModel, minPRR float64) {
	cell := radio.ConnectedRange(minPRR)
	if !(cell > 0) || math.IsInf(cell, 0) {
		cell = 1
	}
	rg := newRingGrid(g.Pos, cell)
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
		compOf := make([]int32, g.N())
		for ci, comp := range comps {
			for _, v := range comp {
				compOf[v] = int32(ci)
			}
		}
		for ci, comp := range comps {
			if ci == giant {
				continue
			}
			bestU, bestV, bestD := -1, -1, math.Inf(1)
			for _, u := range comp {
				rg.nearestOutside(g.Pos, compOf, int32(ci), u, &bestU, &bestV, &bestD)
			}
			if bestU >= 0 {
				g.AddLink(bestU, bestV, clamp(radio.PRR(bestD, 0), minPRR, 0.95))
			}
		}
	}
}

// ringGrid is a spatialGrid indexed for ring walks: the occupied cells of
// every row and every column in ascending order, and the occupied extent.
// A ring walk steps from one occupied cell of the ring to the next, so its
// cost follows the occupied cells, not the ring's area, and it stops at
// the extent instead of a guess — on a sparse field the nearest node
// outside a component can lie thousands of cells away.
type ringGrid struct {
	*spatialGrid
	rows, cols map[int32][]int32 // row y → occupied xs; column x → occupied ys
	lo, hi     [2]int32          // occupied extent, inclusive
}

// newRingGrid builds a ringGrid over pos with the given cell size.
func newRingGrid(pos []Point, cell float64) *ringGrid {
	rg := &ringGrid{
		spatialGrid: newSpatialGrid(pos, cell),
		rows:        make(map[int32][]int32),
		cols:        make(map[int32][]int32),
		lo:          [2]int32{math.MaxInt32, math.MaxInt32},
		hi:          [2]int32{math.MinInt32, math.MinInt32},
	}
	for k := range rg.cells {
		rg.rows[k[1]] = append(rg.rows[k[1]], k[0])
		rg.cols[k[0]] = append(rg.cols[k[0]], k[1])
		for i := range k {
			rg.lo[i] = min(rg.lo[i], k[i])
			rg.hi[i] = max(rg.hi[i], k[i])
		}
	}
	for _, line := range rg.rows {
		slices.Sort(line)
	}
	for _, line := range rg.cols {
		slices.Sort(line)
	}
	return rg
}

// span returns the part of an ascending line within [lo, hi].
func span(line []int32, lo, hi int32) []int32 {
	i, _ := slices.BinarySearch(line, lo)
	j, found := slices.BinarySearch(line, hi)
	if found {
		j++
	}
	return line[i:j]
}

// nearestOutside updates (bestU, bestV, bestD) with the closest node to u
// whose component differs from ci, searching grid rings outward until the
// ring's minimum possible distance exceeds the incumbent. Ring r is
// walked row by row — its top row in full, then the left and right edge
// cells of each row between, then its bottom row — and each cell's
// occupants in id order.
func (rg *ringGrid) nearestOutside(pos []Point, compOf []int32, ci int32, u int, bestU, bestV *int, bestD *float64) {
	ck := rg.key(pos[u])
	visit := func(x, y int32) {
		for _, v := range rg.cells[[2]int32{x, y}] {
			if compOf[v] == ci {
				continue
			}
			if d := pos[u].Dist(pos[int(v)]); d < *bestD {
				*bestU, *bestV, *bestD = u, int(v), d
			}
		}
	}
	// Rings beyond the farthest occupied row or column are empty.
	maxR := max(ck[0]-rg.lo[0], rg.hi[0]-ck[0], ck[1]-rg.lo[1], rg.hi[1]-ck[1])
	for r := int32(0); r <= maxR; r++ {
		// Ring r's closest possible point is (r-1) cells away, so once an
		// incumbent beats that bound no farther ring can improve on it.
		if *bestV >= 0 && float64(r-1)*rg.cell > *bestD {
			return
		}
		x0, x1, y0, y1 := ck[0]-r, ck[0]+r, ck[1]-r, ck[1]+r
		for _, x := range span(rg.rows[y0], x0, x1) {
			visit(x, y0)
		}
		if r == 0 {
			continue
		}
		left, right := span(rg.cols[x0], y0+1, y1-1), span(rg.cols[x1], y0+1, y1-1)
		for len(left) > 0 || len(right) > 0 {
			if len(right) == 0 || len(left) > 0 && left[0] <= right[0] {
				visit(x0, left[0])
				left = left[1:]
			} else {
				visit(x1, right[0])
				right = right[1:]
			}
		}
		for _, x := range span(rg.rows[y1], x0, x1) {
			visit(x, y1)
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// TestbedNodes is the node count of the Indriya-style indoor preset.
const TestbedNodes = 139

// Testbed builds a 139-node indoor-testbed-like topology (Indriya-class):
// nodes on a quasi-grid with placement jitter, milder path loss than the
// forest but heavier shadowing from walls, and denser connectivity. It
// complements the GreenOrbs forest preset for experiments that want a
// second, structurally different deployment.
func Testbed(seed uint64) *Graph {
	cfg := GreenOrbsConfig{
		Nodes:    TestbedNodes,
		FieldX:   60,
		FieldY:   40,
		Clusters: 3, // three floors' worth of clusters
		ClusterR: 12,
		Uniform:  0.5,
		Radio:    testbedRadio(),
		MinPRR:   0.10,
		MaxPRR:   0.95,
	}
	g, err := GenerateGreenOrbs(cfg, seed)
	if err != nil {
		panic("topology: testbed generation failed: " + err.Error())
	}
	g.Name = fmt.Sprintf("testbed-synthetic(seed=%d)", seed)
	return g
}

// testbedRadio is the Testbed preset's radio: the open-field model with
// indoor multipath (exponent 2.8) and heavy shadowing from walls.
func testbedRadio() RadioModel {
	radio := OpenFieldRadio()
	radio.Exponent = 2.8
	radio.ShadowStd = 5.0
	return radio
}

// RandomGeometric places n nodes uniformly in a fieldX × fieldY area and
// links pairs via the radio model exactly as GenerateGreenOrbs does, but
// without clustering. The result is made connected.
func RandomGeometric(n int, fieldX, fieldY float64, radio RadioModel, minPRR float64, seed uint64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: RandomGeometric needs >= 2 nodes")
	}
	if fieldX <= 0 || fieldY <= 0 {
		return nil, fmt.Errorf("topology: non-positive field")
	}
	if minPRR <= 0 || minPRR >= 1 {
		return nil, fmt.Errorf("topology: MinPRR %v outside (0,1)", minPRR)
	}
	root := rngutil.New(seed)
	posRNG := root.SubName("positions")
	g := New(n)
	g.Name = fmt.Sprintf("rgg(n=%d,seed=%d)", n, seed)
	g.Pos = make([]Point, n)
	for i := range g.Pos {
		g.Pos[i] = Point{X: fieldX * posRNG.Float64(), Y: fieldY * posRNG.Float64()}
	}
	linkByDistance(g, radio, minPRR, 0, root.SubName("shadowing"))
	ensureConnected(g, radio, minPRR)
	g.SortNeighbors()
	return g, g.Validate()
}

// Grid builds a rows × cols lattice with the given spacing; each node links
// to its 4-neighborhood with uniform PRR. Useful as an "ideal network"
// (PRR 1) for validating the theory against the simulator.
func Grid(rows, cols int, prr float64) *Graph {
	if rows <= 0 || cols <= 0 {
		panic("topology: Grid needs positive dimensions")
	}
	g := New(rows * cols)
	g.Name = fmt.Sprintf("grid(%dx%d)", rows, cols)
	g.Pos = make([]Point, rows*cols)
	const spacing = 10.0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			g.Pos[i] = Point{X: float64(c) * spacing, Y: float64(r) * spacing}
			if c+1 < cols {
				g.AddLink(i, i+1, prr)
			}
			if r+1 < rows {
				g.AddLink(i, i+cols, prr)
			}
		}
	}
	g.SortNeighbors()
	return g
}

// Line builds an n-node path graph with uniform PRR; node 0 is one end.
func Line(n int, prr float64) *Graph {
	if n <= 0 {
		panic("topology: Line needs n > 0")
	}
	g := New(n)
	g.Name = fmt.Sprintf("line(%d)", n)
	g.Pos = make([]Point, n)
	for i := 0; i < n; i++ {
		g.Pos[i] = Point{X: float64(i) * 10}
		if i+1 < n {
			g.AddLink(i, i+1, prr)
		}
	}
	return g
}

// Star builds a hub-and-spoke graph: node 0 is the hub linked to all others
// with uniform PRR. The adjacency is assembled directly (already sorted)
// rather than through AddLink, whose duplicate scan over the hub's growing
// list would make a maximum-degree star quadratic — the CSR fuzz corpus
// builds 50k-node stars.
func Star(n int, prr float64) *Graph {
	if n < 2 {
		panic("topology: Star needs n >= 2")
	}
	if prr <= 0 || prr > 1 || math.IsNaN(prr) {
		panic(fmt.Sprintf("topology: PRR %v outside (0,1]", prr))
	}
	g := New(n)
	g.Name = fmt.Sprintf("star(%d)", n)
	hub := make([]Link, n-1)
	for i := 1; i < n; i++ {
		hub[i-1] = Link{To: i, PRR: prr}
		g.adj[i] = []Link{{To: 0, PRR: prr}}
	}
	g.adj[0] = hub
	return g
}

// Complete builds the complete graph on n nodes with uniform PRR. Complete
// graphs are the setting in which Algorithm 1's hypercube dissemination
// achieves the theoretical FWL, so this is the main theory-validation
// topology.
func Complete(n int, prr float64) *Graph {
	if n < 2 {
		panic("topology: Complete needs n >= 2")
	}
	g := New(n)
	g.Name = fmt.Sprintf("complete(%d)", n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddLink(u, v, prr)
		}
	}
	g.SortNeighbors()
	return g
}

// CompleteHetero builds a complete graph whose link PRRs are drawn from a
// truncated normal with the given mean and standard deviation (clamped to
// [0.05, 1]). It is the heterogeneous-link setting Section IV-B defers to
// simulation: same mean quality, different spread.
func CompleteHetero(n int, meanPRR, stdPRR float64, seed uint64) *Graph {
	if n < 2 {
		panic("topology: CompleteHetero needs n >= 2")
	}
	if meanPRR <= 0 || meanPRR > 1 {
		panic(fmt.Sprintf("topology: mean PRR %v outside (0,1]", meanPRR))
	}
	if stdPRR < 0 {
		panic("topology: negative PRR std")
	}
	rng := rngutil.New(seed).SubName("hetero-prr")
	g := New(n)
	g.Name = fmt.Sprintf("complete-hetero(%d,mean=%.2f,std=%.2f)", n, meanPRR, stdPRR)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			prr := clamp(rng.NormMeanStd(meanPRR, stdPRR), 0.05, 1)
			g.AddLink(u, v, prr)
		}
	}
	g.SortNeighbors()
	return g
}

// Ring builds an n-node cycle with uniform PRR.
func Ring(n int, prr float64) *Graph {
	if n < 3 {
		panic("topology: Ring needs n >= 3")
	}
	g := New(n)
	g.Name = fmt.Sprintf("ring(%d)", n)
	for i := 0; i < n; i++ {
		g.AddLink(i, (i+1)%n, prr)
	}
	g.SortNeighbors()
	return g
}

// BinaryTree builds a complete-ish binary tree on n nodes rooted at node 0
// (node i's children are 2i+1 and 2i+2) with uniform PRR.
func BinaryTree(n int, prr float64) *Graph {
	if n < 2 {
		panic("topology: BinaryTree needs n >= 2")
	}
	g := New(n)
	g.Name = fmt.Sprintf("btree(%d)", n)
	for i := 0; i < n; i++ {
		if c := 2*i + 1; c < n {
			g.AddLink(i, c, prr)
		}
		if c := 2*i + 2; c < n {
			g.AddLink(i, c, prr)
		}
	}
	g.SortNeighbors()
	return g
}
