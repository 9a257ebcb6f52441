package exact

import (
	"testing"

	"ldcflood/internal/analysis"
	"ldcflood/internal/matrixflood"
)

func TestValidation(t *testing.T) {
	if _, err := OptimalSlots(Config{N: 0, M: 1}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := OptimalSlots(Config{N: 1, M: 0}); err == nil {
		t.Fatal("M=0 accepted")
	}
	if _, err := OptimalSlots(Config{N: 10, M: 10}); err == nil {
		t.Fatal("oversized state space accepted")
	}
}

// The exact optimum for one packet must equal the Lemma 2 / Eq. (6) floor
// ⌈log2(1+N)⌉: the limit is achievable, independent of Algorithm 1.
func TestSinglePacketOptimumMatchesLemma2(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7} {
		res, err := OptimalSlots(Config{N: n, M: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := analysis.FWLFloor(n); res.Slots != want {
			t.Fatalf("N=%d: optimum %d, want FWL floor %d", n, res.Slots, want)
		}
	}
}

// The exact multi-packet optimum must (a) respect the single-packet floor
// for the last packet, (b) never beat the injection schedule (packet M-1
// appears only at slot M-1), and (c) never exceed Algorithm 1's achieved
// completion on power-of-two instances.
func TestMultiPacketOptimumBounds(t *testing.T) {
	cases := []struct{ n, m int }{
		{2, 2}, {3, 2}, {4, 2}, {3, 3}, {2, 4}, {4, 3}, {5, 3}, {7, 3},
	}
	for _, c := range cases {
		res, err := OptimalSlots(Config{N: c.n, M: c.m})
		if err != nil {
			t.Fatalf("N=%d M=%d: %v", c.n, c.m, err)
		}
		floor := c.m - 1 + analysis.FWLFloor(c.n)
		if res.Slots < floor {
			t.Fatalf("N=%d M=%d: optimum %d beats the injection+FWL floor %d — impossible",
				c.n, c.m, res.Slots, floor)
		}
		if matrixflood.IsPowerOfTwo(c.n) {
			alg1, err := matrixflood.Run(matrixflood.Config{N: c.n, M: c.m})
			if err != nil {
				t.Fatal(err)
			}
			if res.Slots > alg1.TotalSlots {
				t.Fatalf("N=%d M=%d: 'optimal' %d worse than Algorithm 1's %d",
					c.n, c.m, res.Slots, alg1.TotalSlots)
			}
		}
	}
}

// The optimum must be monotone in both N and M.
func TestOptimumMonotone(t *testing.T) {
	get := func(n, m int) int {
		res, err := OptimalSlots(Config{N: n, M: m})
		if err != nil {
			t.Fatal(err)
		}
		return res.Slots
	}
	if get(4, 2) < get(4, 1) {
		t.Fatal("optimum decreased with more packets")
	}
	if get(5, 2) < get(3, 2) {
		t.Fatal("optimum decreased with more nodes")
	}
}

// Table I cross-check: the exact optimum for (N, M) small instances is at
// most the Table I completion bound K_{M-1} + W_{M-1}.
func TestOptimumWithinTableI(t *testing.T) {
	for _, c := range []struct{ n, m int }{{2, 2}, {4, 2}, {4, 3}, {7, 2}} {
		res, err := OptimalSlots(Config{N: c.n, M: c.m})
		if err != nil {
			t.Fatal(err)
		}
		bound := analysis.FWLMulti(c.n, c.m)
		if res.Slots > bound {
			t.Fatalf("N=%d M=%d: optimum %d exceeds Table I bound %d", c.n, c.m, res.Slots, bound)
		}
	}
}

func BenchmarkExactSearch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalSlots(Config{N: 4, M: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
