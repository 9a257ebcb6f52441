package schedule

import (
	"testing"
	"testing/quick"

	"ldcflood/internal/rngutil"
)

func TestSingleSlotBasics(t *testing.T) {
	s := NewSingleSlot(10, 3)
	if s.Period() != 10 {
		t.Fatalf("Period = %d", s.Period())
	}
	if got := s.DutyRatio(); got != 0.1 {
		t.Fatalf("DutyRatio = %v", got)
	}
	for tt := int64(0); tt < 30; tt++ {
		want := tt%10 == 3
		if s.IsActive(tt) != want {
			t.Fatalf("IsActive(%d) = %v", tt, s.IsActive(tt))
		}
	}
}

func TestNegativeTime(t *testing.T) {
	s := NewSingleSlot(5, 2)
	if !s.IsActive(-3) { // -3 mod 5 = 2
		t.Fatal("IsActive(-3) should be true for slot 2, period 5")
	}
	if s.IsActive(-1) {
		t.Fatal("IsActive(-1) should be false")
	}
}

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { NewSingleSlot(0, 0) },
		func() { NewSingleSlot(5, 5) },
		func() { NewSingleSlot(5, -1) },
		func() { NewMultiSlot(5, nil) },
		func() { NewMultiSlot(-2, []int{0}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMultiSlot(t *testing.T) {
	s := NewMultiSlot(8, []int{6, 2, 2}) // duplicate collapsed
	if got := s.DutyRatio(); got != 0.25 {
		t.Fatalf("DutyRatio = %v", got)
	}
	slots := s.ActiveSlots()
	if len(slots) != 2 || slots[0] != 2 || slots[1] != 6 {
		t.Fatalf("ActiveSlots = %v", slots)
	}
}

func TestAlwaysOn(t *testing.T) {
	s := AlwaysOn()
	if s.DutyRatio() != 1 {
		t.Fatalf("DutyRatio = %v", s.DutyRatio())
	}
	for tt := int64(0); tt < 5; tt++ {
		if !s.IsActive(tt) || s.NextActive(tt) != tt {
			t.Fatalf("always-on wrong at %d", tt)
		}
	}
}

func TestNextActive(t *testing.T) {
	s := NewSingleSlot(10, 3)
	cases := []struct{ t, want int64 }{
		{0, 3}, {3, 3}, {4, 13}, {9, 13}, {13, 13}, {14, 23},
	}
	for _, c := range cases {
		if got := s.NextActive(c.t); got != c.want {
			t.Fatalf("NextActive(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestNextActiveMultiSlot(t *testing.T) {
	s := NewMultiSlot(10, []int{2, 7})
	cases := []struct{ t, want int64 }{
		{0, 2}, {2, 2}, {3, 7}, {7, 7}, {8, 12}, {12, 12}, {13, 17},
	}
	for _, c := range cases {
		if got := s.NextActive(c.t); got != c.want {
			t.Fatalf("NextActive(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestSleepLatency(t *testing.T) {
	s := NewSingleSlot(5, 0)
	if got := s.SleepLatency(1); got != 4 {
		t.Fatalf("SleepLatency(1) = %d", got)
	}
	if got := s.SleepLatency(0); got != 0 {
		t.Fatalf("SleepLatency(0) = %d", got)
	}
}

func TestAssignUniform(t *testing.T) {
	r := rngutil.New(1)
	scheds := AssignUniform(100, 20, r)
	if len(scheds) != 100 {
		t.Fatalf("got %d schedules", len(scheds))
	}
	seen := make(map[int]bool)
	for _, s := range scheds {
		if s.Period() != 20 || len(s.ActiveSlots()) != 1 {
			t.Fatalf("bad schedule %v", s)
		}
		seen[s.ActiveSlots()[0]] = true
	}
	if len(seen) < 15 {
		t.Fatalf("only %d distinct slots across 100 nodes — not uniform", len(seen))
	}
	// Determinism.
	again := AssignUniform(100, 20, rngutil.New(1))
	for i := range scheds {
		if scheds[i].ActiveSlots()[0] != again[i].ActiveSlots()[0] {
			t.Fatal("AssignUniform not deterministic")
		}
	}
}

func TestAssignUniformMulti(t *testing.T) {
	r := rngutil.New(2)
	scheds := AssignUniformMulti(50, 40, 2, r)
	for _, s := range scheds {
		if s.Period() != 40 || len(s.ActiveSlots()) != 2 {
			t.Fatalf("bad schedule %v", s)
		}
		if s.DutyRatio() != 0.05 {
			t.Fatalf("duty = %v", s.DutyRatio())
		}
	}
	// Determinism.
	again := AssignUniformMulti(50, 40, 2, rngutil.New(2))
	for i := range scheds {
		a, b := scheds[i].ActiveSlots(), again[i].ActiveSlots()
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatal("AssignUniformMulti not deterministic")
		}
	}
	// Full-period schedule allowed.
	full := AssignUniformMulti(3, 4, 4, r)
	if full[0].DutyRatio() != 1 {
		t.Fatal("active == period should be always-on")
	}
}

func TestAssignUniformMultiPanics(t *testing.T) {
	r := rngutil.New(1)
	for i, f := range []func(){
		func() { AssignUniformMulti(0, 10, 1, r) },
		func() { AssignUniformMulti(5, 10, 0, r) },
		func() { AssignUniformMulti(5, 10, 11, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAssignStaggered(t *testing.T) {
	scheds := AssignStaggered(7, 3)
	for i, s := range scheds {
		if s.ActiveSlots()[0] != i%3 {
			t.Fatalf("node %d active at %d", i, s.ActiveSlots()[0])
		}
	}
}

func TestAssignPanics(t *testing.T) {
	cases := []func(){
		func() { AssignUniform(0, 5, rngutil.New(1)) },
		func() { AssignStaggered(0, 5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestPeriodForDuty(t *testing.T) {
	cases := []struct {
		duty float64
		want int
	}{
		{1, 1}, {0.5, 2}, {0.2, 5}, {0.1, 10}, {0.05, 20}, {0.02, 50},
	}
	for _, c := range cases {
		if got := PeriodForDuty(c.duty); got != c.want {
			t.Fatalf("PeriodForDuty(%v) = %d, want %d", c.duty, got, c.want)
		}
	}
}

func TestPeriodForDutyPanics(t *testing.T) {
	for _, duty := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("duty %v did not panic", duty)
				}
			}()
			PeriodForDuty(duty)
		}()
	}
}

// Property: NextActive returns an active slot >= t, and nothing active
// exists in between.
func TestQuickNextActiveCorrect(t *testing.T) {
	f := func(seed uint64, tRaw int64) bool {
		r := rngutil.New(seed)
		period := 1 + r.Intn(30)
		nslots := 1 + r.Intn(period)
		slots := make([]int, nslots)
		for i := range slots {
			slots[i] = r.Intn(period)
		}
		s := NewMultiSlot(period, slots)
		tt := tRaw % 1000
		if tt < 0 {
			tt = -tt
		}
		next := s.NextActive(tt)
		if next < tt || !s.IsActive(next) {
			return false
		}
		for x := tt; x < next; x++ {
			if s.IsActive(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: sleep latency is bounded by the period.
func TestQuickSleepLatencyBounded(t *testing.T) {
	f := func(seed uint64, tRaw int64) bool {
		r := rngutil.New(seed)
		period := 1 + r.Intn(50)
		s := NewSingleSlot(period, r.Intn(period))
		tt := tRaw % 10000
		if tt < 0 {
			tt = -tt
		}
		lat := s.SleepLatency(tt)
		return lat >= 0 && lat < int64(period)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNextActive(b *testing.B) {
	s := NewSingleSlot(100, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.NextActive(int64(i))
	}
}

func TestActiveCountBefore(t *testing.T) {
	cases := []*Schedule{
		NewSingleSlot(5, 2),
		NewMultiSlot(7, []int{0, 3, 6}),
		AlwaysOn(),
		NewSingleSlot(1, 0),
	}
	for _, s := range cases {
		// Cross-check the arithmetic form against a brute-force IsActive
		// scan over several periods, including the t=0 and mid-period edges.
		count := int64(0)
		for slot := int64(0); slot <= int64(4*s.Period()+3); slot++ {
			if got := s.ActiveCountBefore(slot); got != count {
				t.Fatalf("%v.ActiveCountBefore(%d) = %d, want %d", s, slot, got, count)
			}
			if s.IsActive(slot) {
				count++
			}
		}
	}
	if got := NewSingleSlot(5, 2).ActiveCountBefore(-3); got != 0 {
		t.Fatalf("ActiveCountBefore(-3) = %d, want 0", got)
	}
}
