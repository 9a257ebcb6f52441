package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// rankError returns |rank(v) - q*n| / n against the sorted retained
// sample: the fraction of ranks the estimate is off by. With duplicate
// values the whole run of equal values counts as rank-correct.
func rankError(sorted []float64, v, q float64) float64 {
	n := float64(len(sorted))
	lo := float64(sort.SearchFloat64s(sorted, v))             // first index >= v
	hi := float64(sort.Search(len(sorted), func(i int) bool { // first index > v
		return sorted[i] > v
	}))
	target := q * n
	if target >= lo && target <= hi {
		return 0
	}
	return math.Min(math.Abs(target-lo), math.Abs(target-hi)) / n
}

// distributions yields named sample generators covering the shapes the
// sweeps actually see: smooth, heavy-tailed, clustered, adversarially
// ordered, and degenerate.
func distributions(rng *rand.Rand, n int) map[string][]float64 {
	uniform := make([]float64, n)
	exponential := make([]float64, n)
	bimodal := make([]float64, n)
	increasing := make([]float64, n)
	constant := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = rng.Float64() * 1000
		exponential[i] = -math.Log(1-rng.Float64()) * 100
		if rng.Intn(2) == 0 {
			bimodal[i] = rng.NormFloat64() + 10
		} else {
			bimodal[i] = rng.NormFloat64() + 1000
		}
		increasing[i] = float64(i)
		constant[i] = 42
	}
	decreasing := append([]float64(nil), increasing...)
	sort.Sort(sort.Reverse(sort.Float64Slice(decreasing)))
	return map[string][]float64{
		"uniform": uniform, "exponential": exponential, "bimodal": bimodal,
		"increasing": increasing, "decreasing": decreasing, "constant": constant,
	}
}

var testQuantiles = []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// TestDigestExactSmall: below ExactCap the digest must be bit-identical
// to the retained-sample Summarize/Percentile — the property that keeps
// every existing golden artifact byte-stable.
func TestDigestExactSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 17, 100, ExactCap} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 50
		}
		d := NewDigest()
		for _, x := range xs {
			d.Add(x)
		}
		if !d.Exact() {
			t.Fatalf("n=%d: digest collapsed below ExactCap", n)
		}
		if got, want := d.Summary(), Summarize(xs); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: Summary %+v != Summarize %+v", n, got, want)
		}
		for _, q := range testQuantiles {
			if got, want := d.Quantile(q), Percentile(xs, q*100); got != want {
				t.Fatalf("n=%d q=%v: %v != exact %v", n, q, got, want)
			}
		}
	}
}

// TestDigestExactMerge: merging exact digests whose combined size still
// fits ExactCap stays exact and bit-identical to pooling the samples.
func TestDigestExactMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var pooled []float64
	total := NewDigest()
	for part := 0; part < 4; part++ {
		d := NewDigest()
		for i := 0; i < 500; i++ {
			x := rng.Float64() * 100
			d.Add(x)
			pooled = append(pooled, x)
		}
		total.Merge(d)
	}
	if !total.Exact() {
		t.Fatal("merged digest collapsed below ExactCap")
	}
	if got, want := total.Summary(), Summarize(pooled); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged Summary %+v != pooled Summarize %+v", got, want)
	}
}

// TestQuantileSketchAccuracy: past ExactCap, every queried quantile's
// rank error must stay within the documented eps*n bound for an unmerged
// sketch, across distribution shapes.
func TestQuantileSketchAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 60000
	for name, xs := range distributions(rng, n) {
		s := NewQuantileSketch(DefaultEps)
		for _, x := range xs {
			s.Add(x)
		}
		if s.Exact() {
			t.Fatalf("%s: sketch did not collapse at n=%d", name, n)
		}
		if s.TupleCount() > 8192 {
			t.Errorf("%s: summary holds %d tuples — not O(1/eps)", name, s.TupleCount())
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range testQuantiles {
			v := s.Quantile(q)
			if e := rankError(sorted, v, q); e > DefaultEps {
				t.Errorf("%s q=%v: rank error %.5f > eps %.5f (got value %v)", name, q, e, DefaultEps, v)
			}
		}
	}
}

// TestQuantileSketchMergeAccuracy: sharded aggregation — each shard
// sketches its slice, the shards merge (both chain and tree order), and
// every quantile must stay within the documented merged bound 2*eps*n.
func TestQuantileSketchMergeAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, shards = 80000, 16
	for name, xs := range distributions(rng, n) {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)

		build := func(lo, hi int) *QuantileSketch {
			s := NewQuantileSketch(DefaultEps)
			for _, x := range xs[lo:hi] {
				s.Add(x)
			}
			return s
		}
		parts := make([]*QuantileSketch, shards)
		for i := range parts {
			parts[i] = build(i*n/shards, (i+1)*n/shards)
		}

		chain := NewQuantileSketch(DefaultEps)
		for _, p := range parts {
			chain.Merge(p)
		}
		// Tree merge: pairwise reduction, the shape a parallel reducer uses.
		tree := make([]*QuantileSketch, shards)
		for i := range parts {
			tree[i] = build(i*n/shards, (i+1)*n/shards)
		}
		for len(tree) > 1 {
			var next []*QuantileSketch
			for i := 0; i+1 < len(tree); i += 2 {
				tree[i].Merge(tree[i+1])
				next = append(next, tree[i])
			}
			if len(tree)%2 == 1 {
				next = append(next, tree[len(tree)-1])
			}
			tree = next
		}

		for variant, s := range map[string]*QuantileSketch{"chain": chain, "tree": tree[0]} {
			if s.N() != int64(n) {
				t.Fatalf("%s/%s: N=%d want %d", name, variant, s.N(), n)
			}
			for _, q := range testQuantiles {
				v := s.Quantile(q)
				if e := rankError(sorted, v, q); e > 2*DefaultEps {
					t.Errorf("%s/%s q=%v: rank error %.5f > 2*eps %.5f", name, variant, q, e, 2*DefaultEps)
				}
			}
		}
	}
}

// TestDigestMomentsMatchRetained: mean/stddev/min/max from a collapsed,
// merged digest must match the retained-sample values to floating-point
// noise (the moments are exact Welford accumulators, never sketched).
func TestDigestMomentsMatchRetained(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 30000
	xs := make([]float64, n)
	total := NewDigest()
	part := NewDigest()
	for i := range xs {
		xs[i] = rng.NormFloat64()*10 + 100
		part.Add(xs[i])
		if (i+1)%1000 == 0 {
			total.Merge(part)
			part = NewDigest()
		}
	}
	if total.Exact() {
		t.Fatal("digest did not collapse")
	}
	sum := total.Summary()
	if sum.N != n {
		t.Fatalf("N=%d want %d", sum.N, n)
	}
	approx := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want)) }
	if !approx(sum.Mean, Mean(xs), 1e-9) {
		t.Errorf("mean %v != %v", sum.Mean, Mean(xs))
	}
	if !approx(sum.StdDev, StdDev(xs), 1e-9) {
		t.Errorf("stddev %v != %v", sum.StdDev, StdDev(xs))
	}
	if sum.Min != Min(xs) || sum.Max != Max(xs) {
		t.Errorf("min/max %v/%v != %v/%v", sum.Min, sum.Max, Min(xs), Max(xs))
	}
}

// TestDigestDeterminism: the same add/merge sequence must reproduce the
// identical summary — sweeps rely on this for byte-stable artifacts.
func TestDigestDeterminism(t *testing.T) {
	run := func() Summary {
		rng := rand.New(rand.NewSource(6))
		d := NewDigest()
		o := NewDigest()
		for i := 0; i < 20000; i++ {
			d.Add(rng.Float64())
			o.Add(rng.Float64())
		}
		d.Merge(o)
		return d.Summary()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("summaries differ across identical runs:\n%+v\n%+v", a, b)
	}
}

// TestDigestEmpty: an empty digest reports NaN statistics and N=0, like
// the retained-sample functions.
func TestDigestEmpty(t *testing.T) {
	d := NewDigest()
	s := d.Summary()
	if s.N != 0 || !math.IsNaN(s.Mean) || !math.IsNaN(s.Median) {
		t.Fatalf("empty digest summary %+v", s)
	}
	if !math.IsNaN(d.Quantile(0.5)) {
		t.Fatal("empty digest quantile not NaN")
	}
}

// TestQuantileSketchEpsMismatch: merging sketches with different accuracy
// targets is a wiring bug and must panic.
func TestQuantileSketchEpsMismatch(t *testing.T) {
	a := NewQuantileSketch(0.005)
	b := NewQuantileSketch(0.01)
	b.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("eps mismatch did not panic")
		}
	}()
	a.Merge(b)
}

// TestDigestCDFExact: below ExactCap, CDF must reproduce the retained
// sorted sample point for point — values bit-identical to the sorted
// input (duplicates included), cumulative counts 1..N. This is the
// contract that lets figure aggregation swap a retained []float64 for a
// Digest without moving a byte of output.
func TestDigestCDFExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, xs := range distributions(rng, 1000) {
		d := NewDigest()
		for _, x := range xs {
			d.Add(x)
		}
		if !d.Exact() {
			t.Fatalf("%s: digest collapsed below ExactCap", name)
		}
		values, cum := d.CDF()
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		if !reflect.DeepEqual(values, want) {
			t.Fatalf("%s: exact CDF values differ from the sorted sample", name)
		}
		for i, c := range cum {
			if c != int64(i+1) {
				t.Fatalf("%s: cumCounts[%d] = %d, want %d", name, i, c, i+1)
			}
		}
	}
}

// TestDigestCDFSketched: past ExactCap the CDF is the GK summary — values
// sorted, cumulative counts strictly increasing and ending at N, size
// bounded by the summary, and every point's implied quantile within the
// sketch's rank-error budget of the true empirical CDF.
func TestDigestCDFSketched(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 3 * ExactCap
	for name, xs := range distributions(rng, n) {
		d := NewDigest()
		for _, x := range xs {
			d.Add(x)
		}
		if d.Exact() {
			t.Fatalf("%s: digest still exact past ExactCap", name)
		}
		values, cum := d.CDF()
		if len(values) != len(cum) || len(values) == 0 {
			t.Fatalf("%s: mismatched CDF slices (%d, %d)", name, len(values), len(cum))
		}
		if len(values) >= n {
			t.Fatalf("%s: sketched CDF has %d points for %d observations", name, len(values), n)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := int64(0)
		for i, v := range values {
			if i > 0 && v < values[i-1] {
				t.Fatalf("%s: CDF values not sorted at %d", name, i)
			}
			if cum[i] <= prev {
				t.Fatalf("%s: cumCounts not increasing at %d", name, i)
			}
			prev = cum[i]
			if e := rankError(sorted, v, float64(cum[i])/float64(n)); e > 2*DefaultEps {
				t.Fatalf("%s: CDF point %d rank error %v exceeds budget", name, i, e)
			}
		}
		if cum[len(cum)-1] != int64(n) {
			t.Fatalf("%s: CDF ends at %d, want %d", name, cum[len(cum)-1], n)
		}
	}
}
