package sim

import (
	"slices"
	"testing"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/topology"
)

// TestFreeHoldersMatchesBruteForce checks the contention protocols'
// candidate scan against its definition, a walk of the receiver's row
// keeping the entries with !busy[s] && AnyNeeded(s, r), for every node of
// the GreenOrbs trace as receiver. Packet counts straddle the word
// boundaries (one word, a full word, two words, three words) and the
// possession states are random: sparse and dense holdings, random busy
// flags, a node holding every packet, a node emptied by a crash, and
// states in which every node holds all of word 0, so that only the higher
// words can admit a candidate. The output slice is reused across calls,
// as the protocols reuse theirs.
func TestFreeHoldersMatchesBruteForce(t *testing.T) {
	g := topology.GreenOrbs(1)
	csr := g.CSR()
	n := g.N()
	rng := rngutil.New(35)
	for _, m := range []int{1, 63, 64, 65, 80, 130} {
		for trial := 0; trial < 8; trial++ {
			w := possessionWorld(g, m)
			density := []float64{0.02, 0.3, 0.7, 0.97}[trial%4]
			fullWord0 := trial >= 4
			for v := 0; v < n; v++ {
				for p := 0; p < m; p++ {
					if (fullWord0 && p < 64) || rng.Float64() < density {
						w.deliver(p, v, int64(p))
					}
				}
			}
			full := rng.Intn(n)
			crashed := (full + 1 + rng.Intn(n-1)) % n
			for p := 0; p < m; p++ {
				w.deliver(p, full, int64(p))
			}
			w.dropAll(crashed)
			busy := make([]bool, n)
			for v := range busy {
				busy[v] = rng.Float64() < 0.3
			}
			var got, want []int32
			admitted := 0
			for r := 0; r < n; r++ {
				row, _ := csr.Row(r)
				got = w.FreeHolders(got, r, row, busy)
				want = want[:0]
				for i, s := range row {
					if !busy[s] && w.AnyNeeded(int(s), r) {
						want = append(want, int32(i))
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("M=%d trial %d receiver %d: FreeHolders = %v, want %v", m, trial, r, got, want)
				}
				admitted += len(want)
			}
			if row, _ := csr.Row(full); len(w.FreeHolders(nil, full, row, busy)) != 0 {
				t.Fatalf("M=%d trial %d: a receiver holding every packet has free holders", m, trial)
			}
			if density > 0.02 && admitted == 0 {
				t.Fatalf("M=%d trial %d: no receiver admitted a candidate; the state tests nothing", m, trial)
			}
		}
	}
}

// possessionWorld returns a world over g with m packets, all injected,
// and nothing held: the state deliver and dropAll act on.
func possessionWorld(g *topology.Graph, m int) *World {
	n := g.N()
	pwords := (m + 63) / 64
	w := &World{
		Graph:     g,
		M:         m,
		has:       make([]uint64, n*pwords),
		pwords:    pwords,
		heldCount: make([]int, n),
		recvTime:  make([]int64, n*m),
		count:     make([]int, m),
		injected:  m,
	}
	for i := range w.recvTime {
		w.recvTime[i] = -1
	}
	return w
}
