// Package rngutil provides deterministic, splittable pseudo-random number
// streams for reproducible simulation experiments.
//
// The core type is Stream, a xoshiro256** generator. Streams are cheap to
// create and can be split into statistically independent sub-streams keyed
// by integers or strings (Sub, SubName). Keyed splitting lets every entity
// in a simulation (node, link, packet) own its private stream derived from
// one experiment seed, so results do not depend on the order in which
// entities consume randomness.
package rngutil

import (
	"math"
	"math/bits"
)

// Stream is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with New or by splitting an existing stream.
type Stream struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to seed xoshiro state and to mix split keys, per the
// recommendation of the xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += golden
	return avalanche(*state)
}

// golden is SplitMix64's state increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// avalanche is SplitMix64's output function: it maps a state to the
// round's output.
func avalanche(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from the given seed. Distinct seeds yield
// independent-looking streams; the same seed always yields the same stream.
func New(seed uint64) *Stream {
	st := seed
	var r Stream
	for i := range r.s {
		r.s[i] = splitMix64(&st)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x8764000b33c5e883
	}
	return &r
}

// Uint64 returns the next 64 random bits.
func (r *Stream) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Sub returns a new independent stream derived from r's seed material and
// the integer key. It does not consume randomness from r, so the set of
// sub-streams obtained is independent of how much r itself has been used
// after construction is irrelevant: Sub depends on r's current state, so
// derive all sub-streams up front for strict reproducibility.
func (r *Stream) Sub(key uint64) *Stream {
	out := r.SubValue(key)
	return &out
}

// SubValue is Sub returning the derived stream by value, for hot paths
// that derive a fresh keyed stream per entity per step (the sharded
// engine derives one per receiver per slot) and cannot afford a heap
// allocation each time. Derivation only reads r's state, so concurrent
// SubValue calls on a shared parent are safe as long as nothing mutates
// the parent concurrently.
//
// The effective keyspace is 63 bits: the mixing cancels the top key bit,
// so SubValue(k) == SubValue(k ^ 1<<63) for every k. Callers must keep
// their keys distinct modulo 2^63 (all in-tree callers use small
// enumeration keys). The constant cannot change without invalidating
// every committed sharded-run baseline; PairFloat64 avoids the aliasing.
func (r *Stream) SubValue(key uint64) Stream {
	st := r.s[0] ^ bits.RotateLeft64(r.s[1], 13) ^ (key * 0x9e3779b97f4a7c15)
	st ^= key + 0x6a09e667f3bcc909
	var out Stream
	for i := range out.s {
		out.s[i] = splitMix64(&st)
	}
	if out.s[0]|out.s[1]|out.s[2]|out.s[3] == 0 {
		out.s[0] = 0x41c64e6d
	}
	return out
}

// SubFloat64 returns SubValue(key).Float64(), the first uniform of the
// keyed sub-stream, for hot paths that draw exactly once per key (the
// engine's single-intent receivers). The xoshiro256** output function
// reads only state word 1, so only that word is derived: word 0's
// SplitMix64 round reduces to its state increment, and words 2 and 3 are
// never computed. SubValue's all-zero fix-up cannot change the result: it
// fires only when every word, word 1 included, is zero, and it rewrites
// word 0 alone. The key aliasing of SubValue carries over unchanged.
func (r *Stream) SubFloat64(key uint64) float64 {
	st := r.s[0] ^ bits.RotateLeft64(r.s[1], 13) ^ (key * 0x9e3779b97f4a7c15)
	st ^= key + 0x6a09e667f3bcc909
	st += 0x9e3779b97f4a7c15 // state word 0, which the output never reads
	s1 := splitMix64(&st)
	return float64(bits.RotateLeft64(s1*5, 7)*9>>11) / (1 << 53)
}

// PairFloat64 returns a uniform float64 in [0, 1) keyed by an ordered
// integer pair under this stream: PairFloat64(a, b) and PairFloat64(b, a)
// are independent draws. Each key passes through a full SplitMix64
// avalanche before entering the state, so unlike SubValue there is no
// structural aliasing anywhere in the 128-bit pair space. The value is
// the first Float64 of the stream whose four state words are the next
// SplitMix64 outputs of the mixed key state; the xoshiro256** output
// function reads only the second word, so the derivation needs two
// SplitMix64 rounds instead of four plus a state update. Hot paths that
// consume exactly one variate per entity pair (the planners' per-(receiver,
// sender) contention draws and per-sender defer decisions) use this. Like
// SubValue it only reads r's state, so concurrent calls on a shared parent
// are safe. It is PairRow(k1).Float64(k2), the one derivation.
func (r *Stream) PairFloat64(k1, k2 uint64) float64 {
	return r.PairRow(k1).Float64(k2)
}

// PairRow is the pair-draw state with its first key mixed in: the parent
// words and k1's SplitMix64 avalanche, folded once. A caller drawing for
// many second keys under one first key (a receiver's contention draws
// over its candidates) derives the row once and pays, per draw, only the
// second key's avalanche and one SplitMix64 round.
type PairRow struct {
	// st is the mixed state before k2's avalanche is added, advanced by
	// the two SplitMix64 increments that precede the output round: the
	// first round's (state word 0, which the output never reads) and the
	// output round's own.
	st uint64
}

// PairRow returns the row of pair draws keyed by k1 under this stream.
// Like PairFloat64 it only reads r's state.
func (r *Stream) PairRow(k1 uint64) PairRow {
	st := r.s[0] ^ bits.RotateLeft64(r.s[1], 13) ^ avalanche(k1+golden)
	return PairRow{st: st + golden + golden}
}

// Float64 returns PairFloat64(k1, k2) for the row's k1: the first Float64
// of the derived stream, whose output function reads state word 1 alone.
func (p PairRow) Float64(k2 uint64) float64 {
	s1 := avalanche(p.st + avalanche(^k2+golden))
	return float64(bits.RotateLeft64(s1*5, 7)*9>>11) / (1 << 53)
}

// SubName returns a sub-stream keyed by a string, for named components
// ("topology", "schedule", "loss", ...).
func (r *Stream) SubName(name string) *Stream {
	// FNV-1a over the name, then integer split.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return r.Sub(h)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rngutil: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rngutil: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bool returns true with probability p. Out-of-range p is clamped to [0,1].
func (r *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Norm returns a standard normal variate (Box-Muller; one value per call,
// the pair's second half is discarded to keep the stream's consumption
// pattern simple and splittable).
func (r *Stream) Norm() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// NormMeanStd returns a normal variate with the given mean and standard
// deviation. A non-positive std returns mean.
func (r *Stream) NormMeanStd(mean, std float64) float64 {
	if std <= 0 {
		return mean
	}
	return mean + std*r.Norm()
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success (support {0, 1, 2, ...}). It panics unless 0 < p <= 1.
func (r *Stream) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rngutil: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	// Inversion: floor(log(U)/log(1-p)).
	for {
		u := r.Float64()
		if u > 0 {
			return int(math.Floor(math.Log(u) / math.Log(1-p)))
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher-Yates). It panics if n < 0.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rngutil: Shuffle with negative n")
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
