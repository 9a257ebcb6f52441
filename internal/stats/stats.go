// Package stats provides the small statistical toolkit used by the
// simulator, the analysis package and the experiment harness: summary
// statistics, percentiles, running (Welford) accumulators, mergeable
// quantile sketches and the Mann-Whitney U test.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN when len(xs) < 1.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	acc := 0.0
	for _, x := range xs {
		d := x - m
		acc += d * d
	}
	return acc / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns NaN for an empty slice and
// panics for p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted assumes xs is sorted ascending and non-empty.
func percentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Summary captures the five-number summary plus mean and stddev of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty input yields a zero-N summary
// with NaN fields.
func Summarize(xs []float64) Summary {
	s := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
	if len(xs) == 0 {
		s.P25, s.Median, s.P75, s.P99 = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P25 = percentileSorted(sorted, 25)
	s.Median = percentileSorted(sorted, 50)
	s.P75 = percentileSorted(sorted, 75)
	s.P99 = percentileSorted(sorted, 99)
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p99=%.3f max=%.3f",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.P99, s.Max)
}

// Running accumulates streaming mean and variance using Welford's method.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Mean returns the running mean, or NaN when empty.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Variance returns the running population variance, or NaN when empty.
func (r *Running) Variance() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the running population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation, or NaN when empty.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max returns the largest observation, or NaN when empty.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// Merge combines another accumulator into r (parallel Welford merge).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	n := r.n + o.n
	delta := o.mean - r.mean
	mean := r.mean + delta*float64(o.n)/float64(n)
	m2 := r.m2 + o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n, r.mean, r.m2 = n, mean, m2
}
