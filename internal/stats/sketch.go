package stats

// Online, mergeable summaries for large-scale aggregation. A Digest
// replaces a retained []float64 sample wherever sweeps, figures and
// service artifacts pool observations across runs: it keeps streaming
// moments (Welford), min/max, and a Greenwald-Khanna quantile summary.
//
// The design rule is exact-small / sketched-large: up to ExactCap
// observations the digest simply retains the sample, and every statistic
// it reports is BIT-IDENTICAL to the retained-sample functions in this
// package (Summarize, Percentile) — existing golden outputs cannot move.
// Past ExactCap the sample collapses into the GK summary and memory stays
// O(1/eps) per metric no matter how many observations follow; quantile
// queries are then approximate with the rank-error guarantee documented
// on QuantileSketch (and, operationally, in docs/TRACE.md's "Online
// statistics" section).

import (
	"fmt"
	"math"
	"sort"
)

// DefaultEps is the quantile-sketch accuracy used by NewDigest: a queried
// quantile's rank is within eps*n of the target for an unmerged sketch
// (2*eps*n after merging). 0.005 resolves a P99 over any sample size.
const DefaultEps = 0.005

// ExactCap is how many observations a sketch retains before collapsing
// into the approximate GK summary. Below this the sketch is exact —
// byte-for-byte equal to retained-sample statistics.
const ExactCap = 4096

// gkTuple is one Greenwald-Khanna summary entry: a value, the gap g
// between its minimum rank and the previous tuple's, and the rank
// uncertainty del (rmax - rmin).
type gkTuple struct {
	v      float64
	g, del int64
}

// QuantileSketch is a mergeable streaming quantile summary
// (Greenwald-Khanna with an exact-small fast path). The zero value is not
// usable; call NewQuantileSketch. It is deterministic: the summary (and
// therefore every query) is a pure function of the insertion/merge
// sequence, so parallel pipelines that merge in a fixed order produce
// identical artifacts.
//
// Accuracy: Quantile(q) returns a value whose rank r in the observed
// multiset satisfies |r - q*n| <= eps*n for a sketch built by Add alone,
// and |r - q*n| <= 2*eps*n for a sketch produced by Merge (each merge
// level compounds the bound; the property tests in sketch_test.go verify
// both). Below ExactCap observations the answer is exact — identical to
// Percentile on the retained sample.
type QuantileSketch struct {
	eps    float64
	n      int64
	raw    []float64 // exact mode; nil once collapsed
	tuples []gkTuple // approximate mode
	since  int64     // inserts since the last compress
}

// NewQuantileSketch returns an empty sketch with the given accuracy
// target; eps must lie in (0, 0.5). Use DefaultEps unless a different
// trade-off is needed.
func NewQuantileSketch(eps float64) *QuantileSketch {
	if eps <= 0 || eps >= 0.5 {
		panic(fmt.Sprintf("stats: quantile sketch eps %v outside (0, 0.5)", eps))
	}
	return &QuantileSketch{eps: eps}
}

// N returns the number of observations added (including merged ones).
func (s *QuantileSketch) N() int64 { return s.n }

// Exact reports whether the sketch still retains its full sample, i.e.
// queries are exact rather than eps-approximate.
func (s *QuantileSketch) Exact() bool { return s.tuples == nil }

// Add inserts one observation.
func (s *QuantileSketch) Add(x float64) {
	s.n++
	if s.tuples == nil {
		s.raw = append(s.raw, x)
		if int64(len(s.raw)) > ExactCap {
			s.collapse()
		}
		return
	}
	s.insert(x)
}

// collapse converts the retained sample into an error-free GK summary and
// releases the raw buffer.
func (s *QuantileSketch) collapse() {
	sorted := append([]float64(nil), s.raw...)
	sort.Float64s(sorted)
	s.tuples = make([]gkTuple, len(sorted))
	for i, v := range sorted {
		s.tuples[i] = gkTuple{v: v, g: 1}
	}
	s.raw = nil
}

// insert adds x to the GK summary (approximate mode only).
func (s *QuantileSketch) insert(x float64) {
	// Position of the first tuple with v >= x.
	i := sort.Search(len(s.tuples), func(i int) bool { return s.tuples[i].v >= x })
	var del int64
	if i > 0 && i < len(s.tuples) {
		del = int64(2 * s.eps * float64(s.n))
	}
	s.tuples = append(s.tuples, gkTuple{})
	copy(s.tuples[i+1:], s.tuples[i:])
	s.tuples[i] = gkTuple{v: x, g: 1, del: del}
	s.since++
	if s.since >= int64(1/(2*s.eps)) {
		s.compress()
		s.since = 0
	}
}

// compress merges adjacent tuples whose combined rank uncertainty stays
// within the 2*eps*n budget, bounding the summary at O(1/eps) tuples.
func (s *QuantileSketch) compress() {
	if len(s.tuples) < 3 {
		return
	}
	budget := int64(2 * s.eps * float64(s.n))
	out := s.tuples[:0]
	out = append(out, s.tuples[0])
	// Greedily fold tuple i into its successor when allowed; the first
	// and last tuples are always kept (they pin min and max).
	for i := 1; i < len(s.tuples); i++ {
		cur := s.tuples[i]
		last := &out[len(out)-1]
		if len(out) > 1 && last.g+cur.g+cur.del <= budget {
			cur.g += last.g
			out[len(out)-1] = cur
		} else {
			out = append(out, cur)
		}
	}
	s.tuples = out
}

// Merge folds o into s; o is left untouched. Merging two exact sketches
// stays exact while the combined sample fits ExactCap; otherwise both
// collapse and their summaries merge, after which queries carry the
// merged accuracy bound documented on the type. Merging sketches with
// different eps panics — that is a wiring bug, not data.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if o.n == 0 {
		return
	}
	if s.eps != o.eps {
		panic(fmt.Sprintf("stats: merging quantile sketches with eps %v and %v", s.eps, o.eps))
	}
	if s.tuples == nil && o.tuples == nil && int64(len(s.raw)+len(o.raw)) <= ExactCap {
		s.raw = append(s.raw, o.raw...)
		s.n += o.n
		return
	}
	if s.tuples == nil {
		s.collapse()
	}
	ot := o.tuples
	if ot == nil {
		tmp := &QuantileSketch{eps: o.eps, n: o.n, raw: o.raw}
		tmp.collapse()
		ot = tmp.tuples
	}
	s.tuples = mergeTuples(s.tuples, ot)
	s.n += o.n
	s.compress()
}

// mergeTuples interleaves two GK summaries by value. Each side's gap
// counts are preserved; the uncertainty of a tuple grows by the
// uncertainty of the other summary's surrounding gap, which is what makes
// the merged summary's bound eps_a + eps_b (Agarwal et al.'s mergeable-
// summaries argument).
func mergeTuples(a, b []gkTuple) []gkTuple {
	out := make([]gkTuple, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var t gkTuple
		if a[i].v <= b[j].v {
			t = a[i]
			// Rank uncertainty contributed by the other summary: the gap
			// it spans around this value.
			if j > 0 && j < len(b) {
				t.del += b[j].g + b[j].del - 1
			}
			i++
		} else {
			t = b[j]
			if i > 0 && i < len(a) {
				t.del += a[i].g + a[i].del - 1
			}
			j++
		}
		if t.del < 0 {
			t.del = 0
		}
		out = append(out, t)
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Quantile returns the value at quantile q in [0, 1]. In exact mode it
// equals Percentile(sample, q*100); in approximate mode the rank error is
// bounded as documented on the type. It returns NaN for an empty sketch
// and panics for q outside [0, 1].
func (s *QuantileSketch) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if s.n == 0 {
		return math.NaN()
	}
	if s.tuples == nil {
		sorted := append([]float64(nil), s.raw...)
		sort.Float64s(sorted)
		return percentileSorted(sorted, q*100)
	}
	// Target rank (1-based), with the summary's tolerance.
	r := int64(math.Ceil(q * float64(s.n)))
	if r < 1 {
		r = 1
	}
	tol := int64(s.eps * float64(s.n))
	var rmin int64
	for i, t := range s.tuples {
		rmin += t.g
		rmax := rmin + t.del
		if r-rmin <= tol && rmax-r <= tol {
			return t.v
		}
		if i == len(s.tuples)-1 {
			break
		}
	}
	return s.tuples[len(s.tuples)-1].v
}

// TupleCount reports the current summary size (diagnostics; O(1/eps) once
// collapsed).
func (s *QuantileSketch) TupleCount() int {
	if s.tuples == nil {
		return len(s.raw)
	}
	return len(s.tuples)
}

// Digest is the one-stop mergeable metric accumulator: streaming moments
// plus a quantile sketch. It is what sweep-scale pipelines hold per
// metric instead of a growing []float64 — O(1) memory past ExactCap
// observations, bit-identical to retained-sample statistics below it.
// The zero value is not usable; call NewDigest.
type Digest struct {
	m Running
	q *QuantileSketch
}

// NewDigest returns an empty digest with the DefaultEps quantile
// accuracy.
func NewDigest() *Digest {
	return &Digest{q: NewQuantileSketch(DefaultEps)}
}

// Add incorporates one observation.
func (d *Digest) Add(x float64) {
	d.m.Add(x)
	d.q.Add(x)
}

// Merge folds another digest into d (o is left untouched).
func (d *Digest) Merge(o *Digest) {
	d.m.Merge(&o.m)
	d.q.Merge(o.q)
}

// N returns the number of observations.
func (d *Digest) N() int { return int(d.q.N()) }

// Exact reports whether the digest still holds its full sample (all
// statistics exact).
func (d *Digest) Exact() bool { return d.q.Exact() }

// Quantile returns the value at quantile q in [0, 1]; see
// QuantileSketch.Quantile for the accuracy contract.
func (d *Digest) Quantile(q float64) float64 { return d.q.Quantile(q) }

// Summary renders the digest in the package's Summary shape. In exact
// mode it is bit-identical to Summarize over the same observations in the
// same order; in approximate mode the moments are exact (Welford) and the
// percentiles carry the sketch bound.
func (d *Digest) Summary() Summary {
	if d.q.Exact() {
		return Summarize(d.q.raw)
	}
	return Summary{
		N:      d.N(),
		Mean:   d.m.Mean(),
		StdDev: d.m.StdDev(),
		Min:    d.m.Min(),
		Max:    d.m.Max(),
		P25:    d.q.Quantile(0.25),
		Median: d.q.Quantile(0.50),
		P75:    d.q.Quantile(0.75),
		P99:    d.q.Quantile(0.99),
	}
}

// CDF returns the digest's empirical distribution as parallel slices:
// values in ascending order and the cumulative observation count at each
// value. In exact mode every retained observation contributes one point
// (duplicates included), so plotting values[i] against
// float64(cumCounts[i])/N reproduces the retained-sample CDF bit for bit —
// the contract the nodecdf figure relies on. In approximate mode each GK
// tuple contributes one point at its minimum rank, so the curve carries
// the sketch's eps rank-error bound and its length is the O(1/eps) summary
// size rather than N. Both slices are freshly allocated; an empty digest
// returns nil, nil.
func (d *Digest) CDF() (values []float64, cumCounts []int64) {
	if d.q.n == 0 {
		return nil, nil
	}
	if d.q.tuples == nil {
		values = append([]float64(nil), d.q.raw...)
		sort.Float64s(values)
		cumCounts = make([]int64, len(values))
		for i := range cumCounts {
			cumCounts[i] = int64(i + 1)
		}
		return values, cumCounts
	}
	values = make([]float64, len(d.q.tuples))
	cumCounts = make([]int64, len(d.q.tuples))
	var rmin int64
	for i, t := range d.q.tuples {
		rmin += t.g
		values[i] = t.v
		cumCounts[i] = rmin
	}
	return values, cumCounts
}
