package sim

import (
	"reflect"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

// telTestConfig builds a small faulted run: a 12-node line with a mid-run
// crash/reboot and a bursty link chain, so every counter family moves.
func telTestConfig(compact bool) Config {
	g := topology.Line(12, 0.9)
	scheds := schedule.AssignUniform(g.N(), 10, rngutil.New(3).SubName("schedule"))
	return Config{
		Graph:     g,
		Schedules: scheds,
		Protocol: &FuncProtocol{
			ProtocolName: "tel-test",
			IntentsFunc: func(w *World) []Intent {
				var out []Intent
				for _, r := range w.AwakeList() {
					for _, l := range w.Graph.Neighbors(r) {
						if p := w.OldestNeeded(l.To, r); p >= 0 {
							out = append(out, Intent{From: l.To, To: r, Packet: p})
						}
					}
				}
				return out
			},
			Collisions:  true,
			Overhearing: true,
		},
		M:        4,
		Coverage: 1,
		Seed:     7,
		MaxSlots: 50000,
		Faults: &fault.Schedule{
			Links:   []fault.LinkRule{{PGB: 0.05, PBG: 0.2, BadScale: 0.3}},
			Crashes: []fault.Crash{{Node: 5, At: 40, RebootAt: 200}},
		},
		CompactTime: compact,
	}
}

// TestTelemetryDoesNotChangeResults: attaching a registry must be
// invisible to the simulation on both execution paths.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	for _, compact := range []bool{false, true} {
		cfg := telTestConfig(compact)
		plain, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Telemetry = telemetry.New()
		instrumented, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, instrumented) {
			t.Fatalf("compact=%v: attaching telemetry changed the result\nplain %+v\ninstrumented %+v",
				compact, plain, instrumented)
		}
	}
}

// TestTelemetryCountersMatchResult: after a run, the registry must agree
// with the Result's own accounting on both paths — including the
// visited/skipped split that only the compact path exercises.
func TestTelemetryCountersMatchResult(t *testing.T) {
	for _, compact := range []bool{false, true} {
		reg := telemetry.New()
		cfg := telTestConfig(compact)
		cfg.Telemetry = reg
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		want := map[string]int64{
			"sim.runs.started":      1,
			"sim.runs.completed":    1,
			"sim.tx.attempts":       int64(res.Transmissions),
			"sim.tx.success":        int64(res.Transmissions - res.Failures()),
			"sim.tx.loss":           int64(res.LossFailures),
			"sim.tx.collision":      int64(res.CollisionFailures),
			"sim.tx.busy":           int64(res.BusyFailures),
			"sim.tx.sync_miss":      int64(res.SyncFailures),
			"sim.tx.jammed":         int64(res.JamFailures),
			"sim.tx.captured":       int64(res.Captures),
			"sim.overheard":         int64(res.Overheard),
			"sim.packets.injected":  int64(res.M),
			"sim.packets.covered":   int64(res.M),
			"fault.crashes":         int64(res.Crashes),
			"fault.reboots":         int64(res.Reboots),
			"fault.packets_dropped": int64(res.CrashDropped),
		}
		for k, v := range want {
			if snap[k] != v {
				t.Errorf("compact=%v: %s = %d, want %d", compact, k, snap[k], v)
			}
		}
		if res.Crashes != 1 || res.Reboots != 1 {
			t.Fatalf("compact=%v: fault scenario did not fire (crashes=%d reboots=%d)",
				compact, res.Crashes, res.Reboots)
		}
		if snap["fault.chain_flips"] <= 0 {
			t.Errorf("compact=%v: fault.chain_flips = %d, want > 0", compact, snap["fault.chain_flips"])
		}
		// Visited + skipped must cover the whole horizon exactly.
		if got := snap["sim.slots.visited"] + snap["sim.slots.skipped"]; got != res.TotalSlots {
			t.Errorf("compact=%v: visited(%d) + skipped(%d) = %d, want TotalSlots %d",
				compact, snap["sim.slots.visited"], snap["sim.slots.skipped"], got, res.TotalSlots)
		}
		// Dynamic fault schedules force the reference path, so both runs
		// must report the slot path and visit every slot.
		if snap["sim.path.compact"] != 0 || snap["sim.path.slots"] != 1 {
			t.Errorf("compact=%v: path counters (compact=%d slots=%d), want the dynamic-fault fallback",
				compact, snap["sim.path.compact"], snap["sim.path.slots"])
		}
		if snap["sim.slots.skipped"] != 0 {
			t.Errorf("compact=%v: slot path skipped %d slots", compact, snap["sim.slots.skipped"])
		}
	}
}

// TestTelemetryCompactPathCounters: a clean compact run must report the
// fast path as taken and a non-trivial skipped-slot count at low duty.
func TestTelemetryCompactPathCounters(t *testing.T) {
	reg := telemetry.New()
	cfg := telTestConfig(true)
	cfg.Faults = nil // static world: the fast path applies
	cfg.Telemetry = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["sim.path.compact"] != 1 || snap["sim.path.slots"] != 0 {
		t.Fatalf("path counters (compact=%d slots=%d), want compact hit",
			snap["sim.path.compact"], snap["sim.path.slots"])
	}
	if snap["sim.slots.skipped"] == 0 {
		t.Fatal("compact run at 10% duty skipped no slots")
	}
	if got := snap["sim.slots.visited"] + snap["sim.slots.skipped"]; got != res.TotalSlots {
		t.Fatalf("visited + skipped = %d, want %d", got, res.TotalSlots)
	}
	// The same run on the reference path must agree on every drained
	// accumulator (only the visited/skipped split may differ).
	reg2 := telemetry.New()
	cfg2 := cfg
	cfg2.CompactTime = false
	cfg2.Telemetry = reg2
	if _, err := Run(cfg2); err != nil {
		t.Fatal(err)
	}
	snap2 := reg2.Snapshot()
	for _, k := range []string{
		"sim.tx.attempts", "sim.tx.success", "sim.tx.loss", "sim.tx.collision",
		"sim.tx.busy", "sim.tx.sync_miss", "sim.tx.jammed", "sim.overheard",
		"sim.packets.injected", "sim.packets.covered",
	} {
		if snap[k] != snap2[k] {
			t.Errorf("%s: compact %d vs reference %d", k, snap[k], snap2[k])
		}
	}
	if snap2["sim.slots.skipped"] != 0 {
		t.Errorf("reference path skipped %d slots", snap2["sim.slots.skipped"])
	}
	if snap2["sim.slots.visited"] != res.TotalSlots {
		t.Errorf("reference path visited %d slots, want %d", snap2["sim.slots.visited"], res.TotalSlots)
	}
}

// TestTelemetryShardedCounters certifies the slot-discipline instrument
// set: attaching a registry to a pooled run is invisible to results, the
// path/worker gauges report the mode, the pool counters drain the claim
// accounting exactly, and the planner/merge counters are deterministic —
// identical across worker counts and across repeated runs.
func TestTelemetryShardedCounters(t *testing.T) {
	// The 12-node config never outgrows the per-phase chunk floors, so pin
	// the floor at one item to force real multi-chunk batches through the
	// pool (the same hook the stress and fuzz suites use).
	restore := setMinChunk(1)
	defer restore()
	cfg := telTestConfig(false)
	cfg.Workers = 4

	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cfg.Telemetry = reg
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatal("attaching telemetry changed a sharded run's result")
	}

	snap := reg.Snapshot()
	if got := snap["sim.path.sharded"]; got != 1 {
		t.Errorf("sim.path.sharded = %d, want 1", got)
	}
	if got := snap["sim.workers"]; got != 4 {
		t.Errorf("sim.workers = %d, want 4", got)
	}
	for _, name := range []string{"sim.shard.batches", "sim.shard.chunks", "sim.shard.items", "sim.shard.merge.receivers"} {
		if snap[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, snap[name])
		}
	}
	if snap["sim.shard.chunks"] < snap["sim.shard.batches"] {
		t.Error("fewer chunks than batches: claim accounting is inconsistent")
	}
	// FuncProtocol has no planner, so phase B plans nothing.
	if got := snap["sim.shard.planner.candidates"]; got != 0 {
		t.Errorf("sim.shard.planner.candidates = %d, want 0 for a non-planner protocol", got)
	}

	// The merge counters tally deterministic per-slot quantities: they must
	// not move with the worker count (the batch/chunk split legitimately
	// does).
	reg2 := telemetry.New()
	cfg2 := telTestConfig(false)
	cfg2.Workers = 2
	cfg2.Telemetry = reg2
	if _, err := Run(cfg2); err != nil {
		t.Fatal(err)
	}
	snap2 := reg2.Snapshot()
	for _, name := range []string{"sim.shard.merge.receivers", "sim.shard.merge.overhear_cands", "sim.shard.items"} {
		if snap[name] != snap2[name] {
			t.Errorf("%s moved with worker count: %d at w=4, %d at w=2",
				name, snap[name], snap2[name])
		}
	}

	// Workers 0 runs the same discipline inline: it reports one worker and
	// the same deterministic merge tallies.
	reg3 := telemetry.New()
	cfg3 := telTestConfig(false)
	cfg3.Telemetry = reg3
	if _, err := Run(cfg3); err != nil {
		t.Fatal(err)
	}
	snap3 := reg3.Snapshot()
	if got := snap3["sim.workers"]; got != 1 {
		t.Errorf("sim.workers = %d at Workers 0, want 1", got)
	}
	for _, name := range []string{"sim.shard.merge.receivers", "sim.shard.merge.overhear_cands"} {
		if snap[name] != snap3[name] {
			t.Errorf("%s moved with worker count: %d at w=4, %d at w=0",
				name, snap[name], snap3[name])
		}
	}
}

// TestTelemetryPlannerCounters runs a ShardPlanner protocol and checks the
// planner-phase instruments move and stay worker-count-invariant.
func TestTelemetryPlannerCounters(t *testing.T) {
	run := func(workers int) (map[string]int64, *Result) {
		reg := telemetry.New()
		g := lineGraph(16, 0.9)
		res, err := Run(Config{
			Graph:     g,
			Schedules: schedule.AssignStaggered(16, 4),
			Protocol:  &greedyPlanner{},
			M:         3,
			Coverage:  1,
			Seed:      11,
			MaxSlots:  50000,
			Workers:   workers,
			Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot(), res
	}
	snap4, res4 := run(4)
	if got := snap4["sim.shard.planner.candidates"]; got <= 0 {
		t.Errorf("sim.shard.planner.candidates = %d, want > 0 for a planner protocol", got)
	}
	if got, want := snap4["sim.shard.merge.receivers"], int64(res4.Transmissions); got != want {
		t.Errorf("sim.shard.merge.receivers = %d, want %d (every admitted transmission)", got, want)
	}
	snap1, res1 := run(1)
	if !reflect.DeepEqual(res1, res4) {
		t.Fatal("worker count changed the planner run's result")
	}
	for _, name := range []string{"sim.shard.planner.candidates", "sim.shard.merge.receivers", "sim.shard.merge.overhear_cands"} {
		if snap1[name] != snap4[name] {
			t.Errorf("%s moved with worker count: %d at w=1, %d at w=4",
				name, snap1[name], snap4[name])
		}
	}
}
