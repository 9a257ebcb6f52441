package sim_test

// Equivalence suite for the compact time scale with the real protocols:
// the slot loop's empty-offset skip must reproduce the loop that visits
// every slot (sim.RunEverySlot) bit for bit — full sim.Result, aggregated
// metrics.Aggregate, and the byte-exact tracebin event stream — across
// topology × protocol × duty-cycle combinations covering every shipped
// protocol, and under every fault family. An empty fault schedule must
// reproduce the unfaulted run exactly. The suite is an external test
// package because package flood imports sim. Every case must leave some
// schedule offset empty, so that the skipping leg really skips: runBoth
// fails a case whose sim.slots.skipped reads 0.

import (
	"bytes"
	"reflect"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/flood"
	"ldcflood/internal/metrics"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
)

func uniform(n, period int, seed uint64) []*schedule.Schedule {
	return schedule.AssignUniform(n, period, rngutil.New(seed).SubName("schedule"))
}

// strided is uniform at period/stride with every offset multiplied by
// stride: the duty cycle stays 1/period, and only every stride-th offset
// of the period can be occupied, so the others are empty and the loop
// steps over them.
func strided(n, period, stride int, seed uint64) []*schedule.Schedule {
	scheds := uniform(n, period/stride, seed)
	for i, s := range scheds {
		scheds[i] = schedule.NewSingleSlot(period, s.ActiveSlots()[0]*stride)
	}
	return scheds
}

// compactEquivCases spans the shipped protocols over distinct topologies
// and duty cycles (period = 1/duty with a single active slot). With
// stride 1 the offsets are uniform over the period; at the densities of
// the two cases with stride 2, uniform offsets would occupy every offset
// and leave the loop nothing to skip.
var compactEquivCases = []struct {
	name     string
	graph    func() *topology.Graph
	protocol string
	period   int
	stride   int
	m        int
	maxSlots int64
}{
	{"greenorbs-opt-1pct", func() *topology.Graph { return topology.GreenOrbs(1) }, "opt", 100, 1, 3, 200000},
	{"greenorbs-dbao-5pct", func() *topology.Graph { return topology.GreenOrbs(1) }, "dbao", 20, 2, 3, 200000},
	{"grid-of-5pct", func() *topology.Graph { return topology.Grid(7, 7, 0.8) }, "of", 20, 1, 4, 100000},
	{"ring-naive-10pct", func() *topology.Graph { return topology.Ring(24, 0.9) }, "naive", 10, 2, 4, 100000},
}

// runBoth executes one configuration on the every-slot loop
// (sim.RunEverySlot) and on the default, skipping loop, each with a trace
// writer attached, and returns (slow, fast) results plus their trace
// bytes. It fails the test when the skipping leg skips no slot: such a
// case would compare the loop with itself.
func runBoth(t *testing.T, cfg sim.Config, protocol string) (slow, fast *sim.Result, slowTrace, fastTrace []byte) {
	t.Helper()
	reg := telemetry.New()
	run := func(everySlot bool) (*sim.Result, []byte) {
		p, err := flood.New(protocol)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		c := cfg
		c.Protocol = p
		w := tracebin.NewWriter(&buf)
		c.Observer = w
		runFn := sim.Run
		if everySlot {
			runFn = sim.RunEverySlot
		} else {
			c.Telemetry = reg
		}
		res, err := runFn(c)
		if err != nil {
			t.Fatalf("%s every-slot=%v: %v", protocol, everySlot, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	slow, slowTrace = run(true)
	fast, fastTrace = run(false)
	if reg.Snapshot()["sim.slots.skipped"] == 0 {
		t.Errorf("%s: the skipping loop skipped no slot in %d; the case compares the loop with itself", protocol, fast.TotalSlots)
	}
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
				Schedules:        strided(g.N(), tc.period, tc.stride, 42),
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

// TestCompactEquivalenceSyncError re-runs one combo with sync errors
// enabled, exercising the engine's sync-error stream under slot skipping,
// for a carrier-sensing and a colliding protocol. Uniform offsets would
// occupy all twenty offsets of this grid's period, so the table is
// strided.
func TestCompactEquivalenceSyncError(t *testing.T) {
	g := topology.Grid(6, 6, 0.7)
	cfg := sim.Config{
		Graph:            g,
		Schedules:        strided(g.N(), 20, 2, 7),
		M:                3,
		Coverage:         0.99,
		Seed:             99,
		MaxSlots:         100000,
		RecordReceptions: true,
		SyncErrorProb:    0.05,
	}
	for _, protocol := range []string{"dbao", "naive"} {
		slow, fast, slowTrace, fastTrace := runBoth(t, cfg, protocol)
		if slow.SyncFailures == 0 {
			t.Errorf("%s: no sync error fired; the case does not exercise the stream", protocol)
		}
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
	for _, protocol := range flood.Names() {
		slow, fast, slowTrace, fastTrace := runBoth(t, cfg, protocol)
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("%s: results diverge:\nslow %+v\nfast %+v", protocol, slow, fast)
		}
		if !bytes.Equal(slowTrace, fastTrace) {
			t.Errorf("%s: trace logs diverge", protocol)
		}
	}
}

// faultSchedules enumerates one schedule per fault family plus a mixed
// worst case, against a 6×6 grid (period-20 uniform schedules). It is the
// same table package flood's fault tests use.
func faultSchedules() map[string]*fault.Schedule {
	return map[string]*fault.Schedule{
		"static-class": {Links: []fault.LinkRule{
			{MinPRR: 0, MaxPRR: 0.75, BadScale: 0.5, StartBad: 1},
		}},
		"static-random-subset": {Links: []fault.LinkRule{
			{BadScale: 0.3, StartBad: 0.4},
		}},
		"gilbert-elliott": {Links: []fault.LinkRule{
			{PGB: 0.01, PBG: 0.05, BadScale: 0.2},
		}},
		"crash-reboot": {Crashes: []fault.Crash{
			{Node: 7, At: 40, RebootAt: 400},
			{Node: 20, At: 100, RebootAt: -1},
		}},
		"jam-disc": {Jams: []fault.Jam{
			{From: 20, Until: 120, X: 25, Y: 25, Radius: 16},
		}},
		"mixed": {
			Links:   []fault.LinkRule{{PGB: 0.02, PBG: 0.1, BadScale: 0.4}},
			Crashes: []fault.Crash{{Node: 13, At: 60, RebootAt: 300}},
			Jams:    []fault.Jam{{From: 80, Until: 160, Nodes: []int{30, 31, 32}}},
		},
	}
}

func faultCfg(g *topology.Graph, faults *fault.Schedule, seed uint64) sim.Config {
	return sim.Config{
		Graph:            g,
		Schedules:        uniform(g.N(), 20, 42),
		M:                3,
		Coverage:         0.99,
		Seed:             seed,
		MaxSlots:         200000,
		RecordReceptions: true,
		Faults:           faults,
	}
}

// TestFaultEquivalence: for every fault family and every registered
// protocol (the full registry, so a newly registered protocol cannot
// silently skip fault certification), the loop that skips empty schedule
// offsets and the loop that visits every slot must produce identical
// results and byte-identical trace logs — static and dynamic schedules
// alike, since churn and link chains catch up at the next visited slot.
//
// Under crash-reboot, node 20 crashes for good at slot 100, so no
// protocol reaches 99% coverage of the 36 nodes and every run ends at the
// horizon. That horizon is cut from faultCfg's 200000 slots to 4997: the
// run still ends there, by a jump over the empty offset 16 (checked
// below), so the jump's fault catch-up stays covered at a fortieth of the
// slots.
func TestFaultEquivalence(t *testing.T) {
	for name, fs := range faultSchedules() {
		fs := fs
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := topology.Grid(6, 6, 0.8)
			cfg := faultCfg(g, fs, 1234)
			if name == "crash-reboot" {
				cfg.MaxSlots = 4997
				for i, s := range cfg.Schedules {
					if s.IsActive(cfg.MaxSlots - 1) {
						t.Fatalf("node %d is awake at slot %d: the run would not end with a jump to the horizon", i, cfg.MaxSlots-1)
					}
				}
			}
			for _, protocol := range flood.Names() {
				slow, fast, slowTrace, fastTrace := runBoth(t, cfg, protocol)
				if !reflect.DeepEqual(slow, fast) {
					t.Errorf("%s: results diverge:\nslow %+v\nfast %+v", protocol, slow, fast)
				}
				if !bytes.Equal(slowTrace, fastTrace) {
					t.Errorf("%s: trace logs diverge: slow %d bytes, fast %d bytes",
						protocol, len(slowTrace), len(fastTrace))
				}
				if name == "crash-reboot" && (fast.Completed || fast.TotalSlots != cfg.MaxSlots) {
					t.Errorf("%s: completed %v after %d slots; the run should end at the %d-slot horizon",
						protocol, fast.Completed, fast.TotalSlots, cfg.MaxSlots)
				}
			}
		})
	}
}

// TestFaultEquivalenceAllProtocols sweeps every shipped protocol under the
// mixed schedule, the hardest case for the lazy catch-up.
func TestFaultEquivalenceAllProtocols(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	cfg := faultCfg(g, faultSchedules()["mixed"], 77)
	for _, protocol := range flood.Names() {
		slow, fast, slowTrace, fastTrace := runBoth(t, cfg, protocol)
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("%s: results diverge:\nslow %+v\nfast %+v", protocol, slow, fast)
		}
		if !bytes.Equal(slowTrace, fastTrace) {
			t.Errorf("%s: trace logs diverge", protocol)
		}
	}
}

// TestEmptyScheduleMatchesNil pins the zero-perturbation guarantee: an
// empty fault schedule must reproduce the unfaulted run bit for bit (the
// fault RNG stream is derived, never drawn from).
func TestEmptyScheduleMatchesNil(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	base := faultCfg(g, nil, 5)
	faulted := base
	faulted.Faults = &fault.Schedule{}
	for _, protocol := range []string{"opt", "of"} {
		runOne := func(cfg sim.Config) (*sim.Result, []byte) {
			_, res, _, trace := runBoth(t, cfg, protocol)
			return res, trace
		}
		a, ta := runOne(base)
		b, tb := runOne(faulted)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: empty schedule perturbed the run", protocol)
		}
		if !bytes.Equal(ta, tb) {
			t.Errorf("%s: empty schedule perturbed the trace", protocol)
		}
	}
}

// TestFaultDeterminism pins same seed + same schedule ⇒ identical results
// on repeated runs.
func TestFaultDeterminism(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	cfg := faultCfg(g, faultSchedules()["mixed"], 2024)
	a, _, ta, _ := runBoth(t, cfg, "dbao")
	b, _, tb, _ := runBoth(t, cfg, "dbao")
	if !reflect.DeepEqual(a, b) {
		t.Error("re-run with identical seed and schedule diverged")
	}
	if !bytes.Equal(ta, tb) {
		t.Error("re-run trace diverged")
	}
}
