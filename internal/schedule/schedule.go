// Package schedule models the periodic working schedules of low-duty-cycle
// sensors (Section III-A of the paper): time is slotted, each sensor repeats
// a T-slot period and is awake only in its chosen active slots. The paper's
// normalized analysis uses exactly one active slot per period, giving duty
// ratio 1/T; multi-slot schedules are provided for generality.
package schedule

import (
	"fmt"
	"sort"

	"ldcflood/internal/rngutil"
)

// Schedule is a periodic active/dormant pattern. Immutable after creation;
// safe for concurrent readers.
type Schedule struct {
	period int
	active []bool
	slots  []int // sorted active slot indices
}

// NewSingleSlot returns a schedule with period T that is active only in the
// given slot — the paper's normalized low-duty-cycle model (duty ratio 1/T).
// It panics if period <= 0 or slot is outside [0, period).
func NewSingleSlot(period, slot int) *Schedule {
	return NewMultiSlot(period, []int{slot})
}

// NewMultiSlot returns a schedule with period T active in the given slots.
// Duplicate slots are collapsed. It panics for an invalid period, an empty
// slot list, or out-of-range slots.
func NewMultiSlot(period int, slots []int) *Schedule {
	if period <= 0 {
		panic(fmt.Sprintf("schedule: period %d must be positive", period))
	}
	if len(slots) == 0 {
		panic("schedule: need at least one active slot")
	}
	s := &Schedule{period: period, active: make([]bool, period)}
	for _, slot := range slots {
		if slot < 0 || slot >= period {
			panic(fmt.Sprintf("schedule: slot %d outside [0,%d)", slot, period))
		}
		s.active[slot] = true
	}
	for i, a := range s.active {
		if a {
			s.slots = append(s.slots, i)
		}
	}
	return s
}

// AlwaysOn returns the degenerate 100%-duty schedule (period 1). It models
// the "Duty Ratio = 100%" series in Fig. 5.
func AlwaysOn() *Schedule {
	return NewSingleSlot(1, 0)
}

// Period returns the schedule period T in slots.
func (s *Schedule) Period() int { return s.period }

// ActiveSlots returns the sorted active slot indices. The returned slice is
// owned by the schedule and must not be modified.
func (s *Schedule) ActiveSlots() []int { return s.slots }

// DutyRatio returns the fraction of slots in which the sensor is awake.
func (s *Schedule) DutyRatio() float64 {
	return float64(len(s.slots)) / float64(s.period)
}

// IsActive reports whether the sensor is awake at absolute slot t. Negative
// t is treated by periodic extension.
func (s *Schedule) IsActive(t int64) bool {
	return s.active[s.phase(t)]
}

func (s *Schedule) phase(t int64) int {
	p := int(t % int64(s.period))
	if p < 0 {
		p += s.period
	}
	return p
}

// NextActive returns the smallest absolute slot t' >= t at which the sensor
// is awake. With local synchronization (Section III-B) a sender uses this to
// find the receiver's next wake-up.
func (s *Schedule) NextActive(t int64) int64 {
	phase := s.phase(t)
	// First active slot with index >= phase within this period.
	i := sort.SearchInts(s.slots, phase)
	if i < len(s.slots) {
		return t + int64(s.slots[i]-phase)
	}
	// Wrap to the first active slot of the next period.
	return t + int64(s.period-phase+s.slots[0])
}

// SleepLatency returns NextActive(t) - t: how long a sender must wait from
// slot t until this schedule's owner can receive.
func (s *Schedule) SleepLatency(t int64) int64 {
	return s.NextActive(t) - t
}

// ActiveCountBefore returns the number of active slots in [0, t) — the
// radio-on time a node accumulates over the first t slots. The sim engine
// uses it to account awake-slot bookkeeping arithmetically instead of
// counting per slot; it runs in O(log ActiveSlots) via period arithmetic.
// Non-positive t returns 0.
func (s *Schedule) ActiveCountBefore(t int64) int64 {
	if t <= 0 {
		return 0
	}
	full := t / int64(s.period)
	rem := int(t % int64(s.period))
	// sort.SearchInts returns the number of active offsets < rem.
	return full*int64(len(s.slots)) + int64(sort.SearchInts(s.slots, rem))
}

// String renders the schedule compactly.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule{T=%d active=%v duty=%.1f%%}", s.period, s.slots, 100*s.DutyRatio())
}

// Assignment produces one schedule per node. All assignment helpers are
// deterministic given their inputs.

// AssignUniform gives each of n nodes a single uniformly-random active slot
// in a period-T schedule — the paper's model where "each sensor randomly
// picks up one active time slot in one period". It panics if n <= 0 or
// period <= 0.
func AssignUniform(n, period int, rng *rngutil.Stream) []*Schedule {
	if n <= 0 {
		panic("schedule: AssignUniform needs n > 0")
	}
	out := make([]*Schedule, n)
	for i := range out {
		out[i] = NewSingleSlot(period, rng.Intn(period))
	}
	return out
}

// AssignUniformMulti gives each of n nodes `active` distinct
// uniformly-random active slots in a period-T schedule. With period scaled
// proportionally (e.g. T=40 with 2 active slots instead of T=20 with 1) the
// duty ratio is unchanged but wake-ups are more frequent in expectation,
// trading schedule granularity against the paper's normalized one-slot
// model. It panics if n <= 0, active <= 0, or active > period.
func AssignUniformMulti(n, period, active int, rng *rngutil.Stream) []*Schedule {
	if n <= 0 {
		panic("schedule: AssignUniformMulti needs n > 0")
	}
	if active <= 0 || active > period {
		panic(fmt.Sprintf("schedule: active %d outside [1,%d]", active, period))
	}
	out := make([]*Schedule, n)
	for i := range out {
		// Partial Fisher-Yates draw of `active` distinct slots.
		perm := rng.Perm(period)
		out[i] = NewMultiSlot(period, perm[:active])
	}
	return out
}

// AssignStaggered spreads n nodes' single active slots evenly over the
// period (node i active at slot i mod period). Useful as a collision-poor
// baseline in ablations.
func AssignStaggered(n, period int) []*Schedule {
	if n <= 0 {
		panic("schedule: AssignStaggered needs n > 0")
	}
	out := make([]*Schedule, n)
	for i := range out {
		out[i] = NewSingleSlot(period, i%period)
	}
	return out
}

// PeriodForDuty returns the integer period T that realizes the requested
// duty ratio with a single active slot, i.e. round(1/duty). It panics for
// duty outside (0, 1].
func PeriodForDuty(duty float64) int {
	if duty <= 0 || duty > 1 {
		panic(fmt.Sprintf("schedule: duty %v outside (0,1]", duty))
	}
	t := int(1/duty + 0.5)
	if t < 1 {
		t = 1
	}
	return t
}
