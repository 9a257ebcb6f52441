package matrixflood

import (
	"testing"
	"testing/quick"

	"ldcflood/internal/analysis"
	"ldcflood/internal/rngutil"
)

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	for i, cfg := range []Config{
		{N: 0, M: 1},
		{N: 1, M: 0},
		{N: 4, M: 1, Policy: Policy(9)},
	} {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestSinglePacketAchievesFWL(t *testing.T) {
	// For N = 2^n the single packet must complete in exactly
	// m = ⌈log2(1+N)⌉ compact slots (Lemma 2 / Eq. 6).
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		res := mustRun(t, Config{N: n, M: 1})
		m := analysis.FWLFloor(n)
		if res.CompletionSlot[0] != m {
			t.Fatalf("N=%d: completion %d, want m=%d", n, res.CompletionSlot[0], m)
		}
		if res.Waitings[0] != m {
			t.Fatalf("N=%d: waitings %d, want %d", n, res.Waitings[0], m)
		}
	}
}

func TestFig3Example(t *testing.T) {
	// The paper's worked example: N=4, M=2.
	res := mustRun(t, Config{N: 4, M: 2})
	if !res.Completed {
		t.Fatal("not completed")
	}
	// Packet 0 completes at exactly m = 3 (Fig. 3: all nodes at c=3).
	if res.CompletionSlot[0] != 3 {
		t.Fatalf("packet 0 completion = %d, want 3", res.CompletionSlot[0])
	}
	// Packet 1 completes within the Table I bound K1 + W1 = 1 + (m+1) = 5.
	if res.CompletionSlot[1] > 5 {
		t.Fatalf("packet 1 completion = %d, exceeds Table I bound 5", res.CompletionSlot[1])
	}
	if res.CompletionSlot[1] <= res.CompletionSlot[0] {
		t.Fatal("packet 1 cannot finish before packet 0 under FCFS injection")
	}
}

func TestTableIBounds(t *testing.T) {
	// Every packet's waitings respect the Table I values:
	// Wp <= m + min(p, m-1), and the last completion is within
	// K_{M-1} + W_{M-1}.
	cases := []struct{ n, m int }{
		{4, 2}, {8, 3}, {8, 6}, {16, 4}, {16, 12}, {32, 5}, {32, 20},
		{64, 10}, {64, 40}, {128, 30}, {256, 12}, {256, 50},
	}
	for _, c := range cases {
		res := mustRun(t, Config{N: c.n, M: c.m})
		bounds := analysis.Waitings(c.n, c.m)
		for p, w := range res.Waitings {
			if w > bounds[p] {
				t.Fatalf("N=%d M=%d: W_%d = %d exceeds Table I bound %d", c.n, c.m, p, w, bounds[p])
			}
			if w < analysis.FWLFloor(c.n) {
				t.Fatalf("N=%d M=%d: W_%d = %d beats the Eq. 6 floor %d — impossible", c.n, c.m, p, w, analysis.FWLFloor(c.n))
			}
		}
		if got, bound := res.TotalSlots, analysis.FWLMulti(c.n, c.m); got > bound {
			t.Fatalf("N=%d M=%d: total %d exceeds FWL bound %d", c.n, c.m, got, bound)
		}
	}
}

func TestPipelining(t *testing.T) {
	// Corollary 1: beyond the knee, each extra packet adds O(1) compact
	// slots, not O(m): flooding pipelines.
	n := 64
	short := mustRun(t, Config{N: n, M: 5})
	long := mustRun(t, Config{N: n, M: 25})
	extraPerPacket := float64(long.TotalSlots-short.TotalSlots) / 20
	if extraPerPacket > 2.5 {
		t.Fatalf("marginal cost %v slots/packet — flooding is not pipelining", extraPerPacket)
	}
}

func TestExpiryAblation(t *testing.T) {
	// With the expiry rule disabled, stale packets crowd out new ones and
	// completion takes longer (or fails). The run must never be faster.
	n, m := 32, 10
	base := mustRun(t, Config{N: n, M: m})
	abl, err := Run(Config{N: n, M: m, DisableExpiry: true, MaxSlots: 100000})
	if err != nil {
		// Livelock is an acceptable (and informative) ablation outcome.
		t.Logf("ablation livelocked as expected: %v", err)
		return
	}
	if abl.TotalSlots < base.TotalSlots {
		t.Fatalf("disabling expiry sped up flooding: %d < %d", abl.TotalSlots, base.TotalSlots)
	}
}

func TestFIFOPolicy(t *testing.T) {
	// The paper's most-recent-first choice must beat FIFO, which either
	// finishes later or livelocks with packets still incomplete.
	n, m := 64, 16
	mrf := mustRun(t, Config{N: n, M: m})
	fifo, err := Run(Config{N: n, M: m, Policy: FIFOPacket, MaxSlots: 100000})
	if err == nil && fifo.TotalSlots <= mrf.TotalSlots {
		t.Fatalf("FIFO (%d slots) not slower than most-recent-first (%d slots)", fifo.TotalSlots, mrf.TotalSlots)
	}
}

func TestType2SlotAccounting(t *testing.T) {
	res := mustRun(t, Config{N: 16, M: 8})
	if res.Type2Slots < 0 || res.Type2Slots > res.TotalSlots {
		t.Fatalf("type-2 slots %d outside [0,%d]", res.Type2Slots, res.TotalSlots)
	}
	if res.HalfDuplexSlots != res.TotalSlots+res.Type2Slots {
		t.Fatalf("half-duplex accounting wrong: %d != %d + %d", res.HalfDuplexSlots, res.TotalSlots, res.Type2Slots)
	}
	// Multi-packet floods on nontrivial networks necessarily overlap
	// transmissions, so some type-2 slots must appear.
	if res.Type2Slots == 0 {
		t.Fatal("no type-2 slots in a multi-packet flood — detector broken")
	}
}

func TestSinglePacketNoType2(t *testing.T) {
	// N=1, M=1: the source makes one transmission to node 1 and stops —
	// no node ever transmits and receives in the same slot.
	res := mustRun(t, Config{N: 1, M: 1})
	if res.Type2Slots != 0 {
		t.Fatalf("N=1 M=1 has %d type-2 slots, want 0", res.Type2Slots)
	}
	if res.TotalSlots != 1 {
		t.Fatalf("N=1 M=1 took %d slots, want 1", res.TotalSlots)
	}
}

func TestRunRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 100, 298} {
		if _, err := Run(Config{N: n, M: 1}); err == nil {
			t.Fatalf("Run accepted non-power-of-two N=%d", n)
		}
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPowerOfTwo(n) {
			t.Fatalf("IsPowerOfTwo(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 100} {
		if IsPowerOfTwo(n) {
			t.Fatalf("IsPowerOfTwo(%d) = true", n)
		}
	}
}

func TestTransmissionCounts(t *testing.T) {
	res := mustRun(t, Config{N: 16, M: 4})
	// Every one of the 4 packets must reach 16 sensors; each non-duplicate
	// reception is one transmission, so at least 4×16 successful deliveries
	// happened (source-injections are not transmissions).
	minTx := 4 * 16
	if res.Transmissions < minTx {
		t.Fatalf("transmissions %d < minimum deliveries %d", res.Transmissions, minTx)
	}
	if res.DuplicateReceptions > res.Transmissions {
		t.Fatal("more duplicates than transmissions")
	}
}

func TestRunTraceMatchesRun(t *testing.T) {
	cfg := Config{N: 4, M: 2}
	tr, err := RunTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Slots) != tr.Result.TotalSlots+1 {
		t.Fatalf("trace has %d snapshots for %d slots", len(tr.Slots), tr.Result.TotalSlots)
	}
	// Snapshot 0: only the source has packet 0.
	if !tr.Slots[0][0][0] {
		t.Fatal("source lacks packet 0 at c=0")
	}
	for node := 1; node <= 4; node++ {
		if tr.Slots[0][0][node] {
			t.Fatalf("node %d has packet 0 at c=0", node)
		}
	}
	// Final snapshot: everyone has everything.
	last := tr.Slots[len(tr.Slots)-1]
	for p := range last {
		for node, has := range last[p] {
			if !has {
				t.Fatalf("final snapshot: node %d missing packet %d", node, p)
			}
		}
	}
	// Possession is monotone over time.
	for c := 1; c < len(tr.Slots); c++ {
		for p := range tr.Slots[c] {
			for node := range tr.Slots[c][p] {
				if tr.Slots[c-1][p][node] && !tr.Slots[c][p][node] {
					t.Fatalf("possession lost: c=%d p=%d node=%d", c, p, node)
				}
			}
		}
	}
}

func TestRunTraceFig3Checkpoints(t *testing.T) {
	// Verify the c=1 state of the paper's Fig. 3(b): packet 0 at {0,1},
	// packet 1 at {0}.
	tr, err := RunTrace(Config{N: 4, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	c1p0 := tr.Slots[1][0]
	want0 := []bool{true, true, false, false, false}
	for i := range want0 {
		if c1p0[i] != want0[i] {
			t.Fatalf("c=1 packet 0 possession[%d] = %v, want %v", i, c1p0[i], want0[i])
		}
	}
	c1p1 := tr.Slots[1][1]
	want1 := []bool{true, false, false, false, false}
	for i := range want1 {
		if c1p1[i] != want1[i] {
			t.Fatalf("c=1 packet 1 possession[%d] = %v, want %v", i, c1p1[i], want1[i])
		}
	}
}

func TestPolicyString(t *testing.T) {
	if MostRecentFirst.String() != "most-recent-first" || FIFOPacket.String() != "fifo" {
		t.Fatal("policy names wrong")
	}
	if Policy(7).String() == "" {
		t.Fatal("unknown policy should still render")
	}
}

// Property: for random power-of-two N and M, runs complete, waitings honor
// Table I, and completion order follows injection order.
func TestQuickAlgorithmInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.New(seed)
		n := 1 << (1 + r.Intn(7)) // 2..128
		m := 1 + r.Intn(20)
		res, err := Run(Config{N: n, M: m})
		if err != nil || !res.Completed {
			return false
		}
		bounds := analysis.Waitings(n, m)
		floor := analysis.FWLFloor(n)
		prev := 0
		for p := 0; p < m; p++ {
			if res.Waitings[p] > bounds[p] || res.Waitings[p] < floor {
				return false
			}
			if res.CompletionSlot[p] < prev {
				return false
			}
			prev = res.CompletionSlot[p]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAlgorithm1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{N: 256, M: 32}); err != nil {
			b.Fatal(err)
		}
	}
}
