package rngutil

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincide too often: %d/100", same)
	}
}

func TestSubStreamsIndependent(t *testing.T) {
	root := New(7)
	a := root.Sub(1)
	b := root.Sub(2)
	a2 := New(7).Sub(1)
	for i := 0; i < 100; i++ {
		va, vb := a.Uint64(), b.Uint64()
		if va == vb {
			t.Fatalf("sub-streams 1 and 2 coincide at step %d", i)
		}
		if va != a2.Uint64() {
			t.Fatalf("Sub(1) not reproducible at step %d", i)
		}
	}
}

func TestSubDoesNotConsumeParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Sub(5)
	_ = a.SubName("x")
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Sub/SubName consumed parent randomness")
		}
	}
}

func TestSubNameStable(t *testing.T) {
	a := New(3).SubName("loss")
	b := New(3).SubName("loss")
	c := New(3).SubName("schedule")
	if a.Uint64() != b.Uint64() {
		t.Fatal("SubName not deterministic")
	}
	if New(3).SubName("loss").Uint64() == c.Uint64() {
		t.Fatal("different names produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	for n := 1; n <= 10; n++ {
		seen := make(map[int]bool)
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("Intn(%d) did not hit all values in 1000 draws: %d", n, len(seen))
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(23)
	counts := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(8)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.125) > 0.01 {
			t.Fatalf("bucket %d frequency %v far from 1/8", i, frac)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(29)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", frac)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(31)
	const n = 100000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("Norm variance %v", variance)
	}
}

func TestNormMeanStd(t *testing.T) {
	r := New(37)
	if v := r.NormMeanStd(4.5, 0); v != 4.5 {
		t.Fatalf("zero-std normal should return mean, got %v", v)
	}
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.NormMeanStd(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.1 {
		t.Fatalf("NormMeanStd mean %v", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(43)
	if v := r.Geometric(1); v != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", v)
	}
	const p = 0.25
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		g := r.Geometric(p)
		if g < 0 {
			t.Fatalf("Geometric returned negative %d", g)
		}
		sum += float64(g)
	}
	want := (1 - p) / p // mean of failures-before-success geometric
	if mean := sum / n; math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean %v, want ~%v", p, mean, want)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(47)
	for n := 0; n <= 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(53)
	counts := make([]int, 5)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[r.Perm(5)[0]]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.2) > 0.015 {
			t.Fatalf("Perm(5)[0]==%d frequency %v", i, frac)
		}
	}
}

// Property: Uint64n(n) < n for all n > 0.
func TestQuickUint64nInRange(t *testing.T) {
	r := New(61)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: streams derived with the same key from equal-seed parents agree.
func TestQuickSubReproducible(t *testing.T) {
	f := func(seed, key uint64) bool {
		a := New(seed).Sub(key)
		b := New(seed).Sub(key)
		for i := 0; i < 8; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: shuffling preserves the multiset of elements.
func TestQuickShufflePreservesElements(t *testing.T) {
	r := New(67)
	f := func(xs []int) bool {
		orig := make(map[int]int)
		for _, x := range xs {
			orig[x]++
		}
		cp := append([]int(nil), xs...)
		r.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
		got := make(map[int]int)
		for _, x := range cp {
			got[x]++
		}
		if len(orig) != len(got) {
			return false
		}
		for k, v := range orig {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

func BenchmarkSub(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Sub(uint64(i))
	}
}

// TestSubValueTopBitAliasing pins SubValue's documented keyspace limit:
// the top key bit cancels in the mixing, so keys must be distinct modulo
// 2^63. The identity below is load-bearing — key allocators (the sharded
// engine's stream tree) rely on it staying exactly this way, and the
// mixing constants cannot change without invalidating committed baselines.
func TestSubValueTopBitAliasing(t *testing.T) {
	root := New(123)
	for _, k := range []uint64{0, 1, 7, 1 << 20, 1<<62 - 5} {
		a := root.SubValue(k)
		b := root.SubValue(k ^ 1<<63)
		if a.s != b.s {
			t.Fatalf("SubValue(%d) no longer aliases SubValue(%d): the mixing changed", k, k^1<<63)
		}
	}
	// PairFloat64 must NOT inherit the aliasing, and its pair is ordered.
	p := root.PairFloat64(0, 0)
	if p == root.PairFloat64(1<<63, 0) || p == root.PairFloat64(0, 1<<63) {
		t.Fatal("PairFloat64 aliases the top key bit")
	}
	if root.PairFloat64(10, 20) == root.PairFloat64(20, 10) {
		t.Fatal("PairFloat64 ignores the key order")
	}
}

// TestPairFloat64MatchesPairStream pins PairFloat64 to its documented
// identity: the first Float64 of the full stream derived from the mixed
// pair key. Keyed baselines (the planners' contention draws) depend on
// the shortcut never diverging from that definition.
func TestPairFloat64MatchesPairStream(t *testing.T) {
	root := New(42)
	keys := []uint64{0, 1, 2, 63, 1 << 32, 1 << 62, 1 << 63, ^uint64(0)}
	for _, k1 := range keys {
		for _, k2 := range keys {
			want := pairFloat64Ref(root, k1, k2)
			if got := root.PairFloat64(k1, k2); got != want {
				t.Fatalf("PairFloat64(%d, %d) = %v, want pair stream's first draw %v", k1, k2, got, want)
			}
		}
	}
}

// TestSubFloat64MatchesSubValue pins SubFloat64 to its definition, the
// first Float64 of SubValue(key), over random parents and keys — keys with
// the top bit set included, so the two keep the same aliasing. The
// engine's single-draw receivers depend on the shortcut never diverging.
func TestSubFloat64MatchesSubValue(t *testing.T) {
	gen := New(77)
	for i := 0; i < 2000; i++ {
		root := New(gen.Uint64())
		key := gen.Uint64()
		switch i % 4 {
		case 0:
			key >>= 40 // small enumeration keys, as the engine uses
		case 1:
			key |= 1 << 63
		}
		sub := root.SubValue(key)
		if got, want := root.SubFloat64(key), sub.Float64(); got != want {
			t.Fatalf("SubFloat64(%#x) = %v, want SubValue's first draw %v", key, got, want)
		}
		if root.SubFloat64(key) != root.SubFloat64(key^1<<63) {
			t.Fatalf("SubFloat64(%#x) lost SubValue's top-bit aliasing", key)
		}
	}
}

// pairFloat64Ref is the pair draw written out as its definition: the
// stream whose four state words are successive SplitMix64 outputs of the
// parent words mixed with both keys' avalanches, read through its first
// Float64.
func pairFloat64Ref(r *Stream, k1, k2 uint64) float64 {
	h1, h2 := k1, ^k2
	st := r.s[0] ^ bits.RotateLeft64(r.s[1], 13) ^ splitMix64(&h1)
	st += splitMix64(&h2)
	var out Stream
	for i := range out.s {
		out.s[i] = splitMix64(&st)
	}
	return out.Float64()
}

// TestPairRowMatchesPairFloat64 pins the receiver-hoisted row draw and
// PairFloat64 to the pair draw's definition over random parents and key
// pairs: keys with the top bit set, equal keys, and the flood package's
// defer key (1 << 62) as the second key. OF's contention pass draws every
// candidate through a PairRow and the other protocols through
// PairFloat64, so the two must never diverge.
func TestPairRowMatchesPairFloat64(t *testing.T) {
	gen := New(78)
	for i := 0; i < 2000; i++ {
		root := New(gen.Uint64())
		k1, k2 := gen.Uint64(), gen.Uint64()
		switch i % 5 {
		case 0:
			k1, k2 = k1>>48, k2>>48 // small node ids, as the protocols use
		case 1:
			k1 |= 1 << 63
			k2 |= 1 << 63
		case 2:
			k2 = k1
		case 3:
			k1, k2 = k1>>48, 1<<62
		}
		want := pairFloat64Ref(root, k1, k2)
		if got := root.PairRow(k1).Float64(k2); got != want {
			t.Fatalf("PairRow(%#x).Float64(%#x) = %v, want %v", k1, k2, got, want)
		}
		if got := root.PairFloat64(k1, k2); got != want {
			t.Fatalf("PairFloat64(%#x, %#x) = %v, want %v", k1, k2, got, want)
		}
	}
}

// TestPairFloat64DoesNotConsumeParent mirrors the SubValue guarantee.
func TestPairFloat64DoesNotConsumeParent(t *testing.T) {
	a := New(5)
	b := New(5)
	_ = a.PairFloat64(1, 2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("PairFloat64 consumed parent randomness (step %d)", i)
		}
	}
}

// TestPairFloat64Uniform sweeps a key grid and checks the draws stay in
// [0, 1) with a plausible mean.
func TestPairFloat64Uniform(t *testing.T) {
	root := New(8)
	sum := 0.0
	const nkeys = 20000
	for k := uint64(0); k < nkeys; k++ {
		u := root.PairFloat64(k, k*k+1)
		if u < 0 || u >= 1 {
			t.Fatalf("PairFloat64 out of range: %v", u)
		}
		sum += u
	}
	mean := sum / nkeys
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("mean across keyed pair draws = %f, want ~0.5", mean)
	}
}
