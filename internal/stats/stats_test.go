package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ldcflood/internal/rngutil"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean([]float64{-5}); got != -5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestVariance(t *testing.T) {
	if !math.IsNaN(Variance(nil)) {
		t.Fatal("Variance(nil) should be NaN")
	}
	if got := Variance([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("Variance of constant = %v", got)
	}
	// Var of {1,2,3,4} (population) = 1.25
	if got := Variance([]float64{1, 2, 3, 4}); !almostEq(got, 1.25, 1e-12) {
		t.Fatalf("Variance = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max wrong: %v %v", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("Min/Max of empty should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {10, 14},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-9) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("Percentile of empty should be NaN")
	}
	if got := Percentile([]float64{42}, 99); got != 42 {
		t.Fatalf("single-element percentile = %v", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(-1) did not panic")
		}
	}()
	Percentile([]float64{1}, -1)
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) || !math.IsNaN(empty.Median) {
		t.Fatalf("bad empty summary: %+v", empty)
	}
	if s.String() == "" {
		t.Fatal("Summary.String empty")
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	xs := []float64{4, 8, 15, 16, 23, 42}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != len(xs) {
		t.Fatalf("N = %d", r.N())
	}
	if !almostEq(r.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("running mean %v vs %v", r.Mean(), Mean(xs))
	}
	if !almostEq(r.Variance(), Variance(xs), 1e-9) {
		t.Fatalf("running var %v vs %v", r.Variance(), Variance(xs))
	}
	if r.Min() != 4 || r.Max() != 42 {
		t.Fatalf("running min/max %v %v", r.Min(), r.Max())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.Variance()) || !math.IsNaN(r.Min()) || !math.IsNaN(r.Max()) {
		t.Fatal("empty Running should report NaN")
	}
}

func TestRunningMerge(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	var a, b, whole Running
	for i, x := range xs {
		if i < 3 {
			a.Add(x)
		} else {
			b.Add(x)
		}
		whole.Add(x)
	}
	a.Merge(&b)
	if a.N() != whole.N() || !almostEq(a.Mean(), whole.Mean(), 1e-9) || !almostEq(a.Variance(), whole.Variance(), 1e-9) {
		t.Fatalf("merge mismatch: %v/%v vs %v/%v", a.Mean(), a.Variance(), whole.Mean(), whole.Variance())
	}
	var empty Running
	empty.Merge(&whole)
	if empty.N() != whole.N() {
		t.Fatal("merge into empty failed")
	}
	n := whole.N()
	var empty2 Running
	whole.Merge(&empty2)
	if whole.N() != n {
		t.Fatal("merging empty changed accumulator")
	}
}

// Property: percentile is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	r := rngutil.New(5)
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := r.Float64() * 100
		p2 := r.Float64() * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize respects ordering Min <= P25 <= Median <= P75 <= Max.
func TestQuickSummaryOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.P25 && s.P25 <= s.Median && s.Median <= s.P75 && s.P75 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: running accumulator agrees with batch computation.
func TestQuickRunningAgreesWithBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		var r Running
		for _, x := range xs {
			r.Add(x)
		}
		scale := math.Max(1, math.Abs(Mean(xs)))
		return almostEq(r.Mean(), Mean(xs), 1e-6*scale) &&
			almostEq(r.Variance(), Variance(xs), 1e-4*math.Max(1, Variance(xs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

var sink float64

func BenchmarkSummarize(b *testing.B) {
	r := rngutil.New(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Summarize(xs).Median
	}
}

func BenchmarkRunningAdd(b *testing.B) {
	var r Running
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(float64(i % 1000))
	}
	sink = r.Mean()
}

func TestSortStability(t *testing.T) {
	// Guard that percentileSorted requires sorted input by checking the
	// public API sorts internally.
	xs := []float64{9, 1, 5}
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	if got := Percentile(xs, 0); got != want[0] {
		t.Fatalf("Percentile(0) = %v, want %v", got, want[0])
	}
	if got := Percentile(xs, 100); got != want[2] {
		t.Fatalf("Percentile(100) = %v, want %v", got, want[2])
	}
}
