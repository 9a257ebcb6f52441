package flood

// Equivalence suite for the compact time scale with the real protocols:
// the slot loop's empty-offset skip must reproduce the loop that visits
// every slot bit for bit — full sim.Result, aggregated metrics.Aggregate,
// and the byte-exact tracelog event stream — across topology × protocol ×
// duty-cycle combinations covering every shipped protocol. A no-op Adapt
// hook is the every-slot oracle: it disables the engine's offset plan.

import (
	"bytes"
	"reflect"
	"testing"

	"ldcflood/internal/metrics"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracelog"
)

// compactEquivCases spans the shipped protocols over distinct topologies
// and duty cycles (period = 1/duty with a single active slot).
var compactEquivCases = []struct {
	name     string
	graph    func() *topology.Graph
	protocol string
	period   int
	m        int
	maxSlots int64
}{
	{"greenorbs-opt-1pct", func() *topology.Graph { return topology.GreenOrbs(1) }, "opt", 100, 3, 200000},
	{"greenorbs-dbao-5pct", func() *topology.Graph { return topology.GreenOrbs(1) }, "dbao", 20, 3, 200000},
	{"grid-of-5pct", func() *topology.Graph { return topology.Grid(7, 7, 0.8) }, "of", 20, 4, 100000},
	{"ring-naive-10pct", func() *topology.Graph { return topology.Ring(24, 0.9) }, "naive", 10, 4, 100000},
}

// runBoth executes one configuration on the every-slot loop and on the
// default, skipping loop with a trace logger attached and returns (slow,
// fast) results plus their trace bytes.
func runBoth(t *testing.T, cfg sim.Config, protocol string) (slow, fast *sim.Result, slowTrace, fastTrace []byte) {
	t.Helper()
	run := func(everySlot bool) (*sim.Result, []byte) {
		p, err := New(protocol)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		c := cfg
		c.Protocol = p
		c.Observer = tracelog.NewLogger(&buf)
		if everySlot {
			c.Adapt = func(*sim.World, []*schedule.Schedule) {}
			c.AdaptEvery = 1 << 62
		}
		res, err := sim.Run(c)
		if err != nil {
			t.Fatalf("%s every-slot=%v: %v", protocol, everySlot, err)
		}
		if err := c.Observer.(*tracelog.Logger).Flush(); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	slow, slowTrace = run(true)
	fast, fastTrace = run(false)
	return slow, fast, slowTrace, fastTrace
}

// TestCompactEquivalenceProtocols is the acceptance-criteria suite: for
// each combo, the skipping and the every-slot loop must emit identical
// results, identical metrics.Aggregate values, and byte-identical trace
// logs.
func TestCompactEquivalenceProtocols(t *testing.T) {
	for _, tc := range compactEquivCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			g := tc.graph()
			cfg := sim.Config{
				Graph:            g,
				Schedules:        uniform(g.N(), tc.period, 42),
				M:                tc.m,
				Coverage:         0.99,
				Seed:             1234,
				MaxSlots:         tc.maxSlots,
				RecordReceptions: true,
			}
			slow, fast, slowTrace, fastTrace := runBoth(t, cfg, tc.protocol)
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("results diverge:\nslow %+v\nfast %+v", slow, fast)
			}
			aggSlow, err := metrics.Combine([]*sim.Result{slow})
			if err != nil {
				t.Fatal(err)
			}
			aggFast, err := metrics.Combine([]*sim.Result{fast})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(aggSlow, aggFast) {
				t.Errorf("aggregates diverge:\nslow %+v\nfast %+v", aggSlow, aggFast)
			}
			if !bytes.Equal(slowTrace, fastTrace) {
				t.Errorf("trace logs diverge: slow %d bytes, fast %d bytes",
					len(slowTrace), len(fastTrace))
			}
			if !slow.Completed {
				t.Errorf("run did not complete within %d slots; equivalence vacuous", tc.maxSlots)
			}
		})
	}
}

// TestCompactEquivalenceSyncCapture re-runs one combo with the optional
// sync-error and capture features enabled, exercising the engine's
// secondary RNG streams under slot skipping.
func TestCompactEquivalenceSyncCapture(t *testing.T) {
	g := topology.Grid(6, 6, 0.7)
	cfg := sim.Config{
		Graph:            g,
		Schedules:        uniform(g.N(), 20, 7),
		M:                3,
		Coverage:         0.99,
		Seed:             99,
		MaxSlots:         100000,
		RecordReceptions: true,
		SyncErrorProb:    0.05,
		CaptureProb:      0.4,
	}
	for _, protocol := range []string{"dbao", "flash"} {
		slow, fast, slowTrace, fastTrace := runBoth(t, cfg, protocol)
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("%s: results diverge:\nslow %+v\nfast %+v", protocol, slow, fast)
		}
		if !bytes.Equal(slowTrace, fastTrace) {
			t.Errorf("%s: trace logs diverge", protocol)
		}
	}
}

// TestCompactEquivalenceMultiSlot covers schedules with several active
// slots per period and heterogeneous periods (hyperperiod > period).
func TestCompactEquivalenceMultiSlot(t *testing.T) {
	g := topology.Ring(18, 0.85)
	n := g.N()
	scheds := make([]*schedule.Schedule, n)
	for i := range scheds {
		switch i % 3 {
		case 0:
			scheds[i] = schedule.NewSingleSlot(12, i%12)
		case 1:
			scheds[i] = schedule.NewMultiSlot(8, []int{i % 8, (i + 3) % 8})
		default:
			scheds[i] = schedule.NewSingleSlot(6, i%6)
		}
	}
	cfg := sim.Config{
		Graph:            g,
		Schedules:        scheds,
		M:                3,
		Coverage:         1,
		Seed:             5,
		MaxSlots:         100000,
		RecordReceptions: true,
	}
	for _, protocol := range Names() {
		slow, fast, slowTrace, fastTrace := runBoth(t, cfg, protocol)
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("%s: results diverge:\nslow %+v\nfast %+v", protocol, slow, fast)
		}
		if !bytes.Equal(slowTrace, fastTrace) {
			t.Errorf("%s: trace logs diverge", protocol)
		}
	}
}
