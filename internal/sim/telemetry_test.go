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
func telTestConfig() Config {
	g := topology.Line(12, 0.9)
	scheds := schedule.AssignUniform(g.N(), 10, rngutil.New(3).SubName("schedule"))
	return Config{
		Graph:     g,
		Schedules: scheds,
		Protocol: &FuncProtocol{
			ProtocolName: "tel-test",
			IntentsFunc: func(w *World) []Intent {
				var out []Intent
				for _, r := range w.awakeList {
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
	}
}

// TestTelemetryDoesNotChangeResults: attaching a registry must be
// invisible to the simulation, with and without a fault schedule.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	for _, faulted := range []bool{true, false} {
		cfg := telTestConfig()
		if !faulted {
			cfg.Faults = nil
		}
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
			t.Fatalf("faulted=%v: attaching telemetry changed the result\nplain %+v\ninstrumented %+v",
				faulted, plain, instrumented)
		}
	}
}

// TestTelemetryCountersMatchResult: after a faulted run, the registry must
// agree with the Result's own accounting.
func TestTelemetryCountersMatchResult(t *testing.T) {
	reg := telemetry.New()
	cfg := telTestConfig()
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
		"sim.overheard":         int64(res.Overheard),
		"sim.packets.injected":  int64(res.M),
		"sim.packets.covered":   int64(res.M),
		"fault.crashes":         int64(res.Crashes),
		"fault.reboots":         int64(res.Reboots),
		"fault.packets_dropped": int64(res.CrashDropped),
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("%s = %d, want %d", k, snap[k], v)
		}
	}
	if res.Crashes != 1 || res.Reboots != 1 {
		t.Fatalf("fault scenario did not fire (crashes=%d reboots=%d)", res.Crashes, res.Reboots)
	}
	if snap["fault.chain_flips"] <= 0 {
		t.Errorf("fault.chain_flips = %d, want > 0", snap["fault.chain_flips"])
	}
	if got := snap["sim.slots.visited"] + snap["sim.slots.skipped"]; got != res.TotalSlots {
		t.Errorf("visited(%d) + skipped(%d) = %d, want TotalSlots %d",
			snap["sim.slots.visited"], snap["sim.slots.skipped"], got, res.TotalSlots)
	}
}

// TestTelemetryCompactPathCounters: a clean run at low duty must skip
// slots, account for the whole horizon in visited + skipped, and split the
// two exactly as a hand count of the empty-offset skip predicts.
func TestTelemetryCompactPathCounters(t *testing.T) {
	reg := telemetry.New()
	cfg := telTestConfig()
	cfg.Faults = nil
	cfg.Telemetry = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["sim.slots.skipped"] == 0 {
		t.Fatal("clean run at 10% duty skipped no slots")
	}
	if got := snap["sim.slots.visited"] + snap["sim.slots.skipped"]; got != res.TotalSlots {
		t.Fatalf("visited + skipped = %d, want %d", got, res.TotalSlots)
	}
	for k, v := range map[string]int64{
		"sim.tx.attempts":      int64(res.Transmissions),
		"sim.tx.success":       int64(res.Transmissions - res.Failures()),
		"sim.tx.loss":          int64(res.LossFailures),
		"sim.tx.collision":     int64(res.CollisionFailures),
		"sim.overheard":        int64(res.Overheard),
		"sim.packets.injected": int64(res.M),
		"sim.packets.covered":  int64(res.M),
	} {
		if snap[k] != v {
			t.Errorf("%s = %d, want %d", k, snap[k], v)
		}
	}

	// A hand-built table with hyperperiod 6 on a reliable 3-node line:
	// node 0 wakes at offset 0, node 1 at 2, node 2 at 2 and 5, so offsets
	// 1, 3 and 4 are empty. Packets enter at slots 0 and 4. Node 1 takes
	// p0 at slot 2, node 2 takes p0 at 5, node 1 takes p1 at 8 and node 2
	// takes p1 at 11, completing the flood: TotalSlots 12. Visited are the
	// slots with an awake node (0 2 5 6 8 11) or an injection (4): 7;
	// skipped are 1 3 7 9 10: 5.
	reg = telemetry.New()
	res, err = Run(Config{
		Graph: topology.Line(3, 1),
		Schedules: []*schedule.Schedule{
			schedule.NewSingleSlot(6, 0),
			schedule.NewSingleSlot(6, 2),
			schedule.NewSingleSlot(3, 2),
		},
		Protocol:       cfg.Protocol,
		M:              2,
		InjectInterval: 4,
		Coverage:       1,
		Telemetry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if res.TotalSlots != 12 || !res.Completed {
		t.Fatalf("TotalSlots = %d (completed %v), want 12 by the hand count", res.TotalSlots, res.Completed)
	}
	if snap["sim.slots.visited"] != 7 || snap["sim.slots.skipped"] != 5 {
		t.Errorf("visited %d, skipped %d; want 7 and 5 by the hand count",
			snap["sim.slots.visited"], snap["sim.slots.skipped"])
	}
	if want := []int64{2, 2, 4}; !reflect.DeepEqual(res.AwakeSlotsPerNode, want) {
		t.Errorf("AwakeSlotsPerNode = %v, want %v", res.AwakeSlotsPerNode, want)
	}
}

// TestTelemetryShardedCounters certifies the slot-discipline instrument
// set: attaching a registry is invisible to results, the pool's and the
// retired path counter's instruments are gone, and the merge
// counters are deterministic — identical across repeated runs and
// whatever Config.Workers holds.
func TestTelemetryShardedCounters(t *testing.T) {
	cfg := telTestConfig()
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
		t.Fatal("attaching telemetry changed the run's result")
	}

	snap := reg.Snapshot()
	if snap["sim.slot.receivers"] <= 0 {
		t.Errorf("sim.slot.receivers = %d, want > 0", snap["sim.slot.receivers"])
	}
	for _, name := range []string{"sim.path.sharded", "sim.workers", "sim.shard.batches", "sim.shard.chunks", "sim.shard.items", "sim.shard.planner.candidates", "sim.shard.merge.receivers", "sim.shard.merge.overhear_cands"} {
		if _, ok := snap[name]; ok {
			t.Errorf("%s is registered; the engine has one slot path, no worker pool, and plans no candidates", name)
		}
	}

	reg2 := telemetry.New()
	cfg2 := telTestConfig()
	cfg2.Workers = 4
	cfg2.Telemetry = reg2
	if _, err := Run(cfg2); err != nil {
		t.Fatal(err)
	}
	snap2 := reg2.Snapshot()
	for _, name := range []string{"sim.slot.receivers", "sim.slot.overhear_cands"} {
		if snap[name] != snap2[name] {
			t.Errorf("%s moved between runs: %d, then %d", name, snap[name], snap2[name])
		}
	}
}

// TestTelemetryPlannerCounters runs the greedy protocol and checks that
// the merge-phase instruments move and repeat exactly across runs.
func TestTelemetryPlannerCounters(t *testing.T) {
	run := func() (map[string]int64, *Result) {
		reg := telemetry.New()
		g := lineGraph(16, 0.9)
		res, err := Run(Config{
			Graph:     g,
			Schedules: schedule.AssignStaggered(16, 4),
			Protocol:  &greedyProtocol{},
			M:         3,
			Coverage:  1,
			Seed:      11,
			MaxSlots:  50000,
			Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot(), res
	}
	snap1, res1 := run()
	if got, want := snap1["sim.slot.receivers"], int64(res1.Transmissions); got != want {
		t.Errorf("sim.slot.receivers = %d, want %d (every admitted transmission)", got, want)
	}
	snap2, res2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Fatal("the greedy run's result changed between runs")
	}
	for _, name := range []string{"sim.slot.receivers", "sim.slot.overhear_cands"} {
		if snap1[name] != snap2[name] {
			t.Errorf("%s moved between runs: %d, then %d", name, snap1[name], snap2[name])
		}
	}
}
