package flood

// Behavior suite for fault injection (internal/fault) with the real
// protocols: churn re-dissemination, jamming outages, and validation. The
// fault tables here also drive the shard, discipline and keyed-golden
// suites. The equivalence of the empty-offset skip with the every-slot
// loop under every fault family lives in internal/sim/skip_equiv_test.go.

import (
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// faultSchedules enumerates one schedule per fault family plus a mixed
// worst case, against a 6×6 grid (period-20 uniform schedules).
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

// TestCrashReDissemination checks the churn semantics end to end: a node
// that crashes after receiving packets loses them (CrashDropped > 0), the
// flood completes anyway, and the rebooted node receives again afterwards.
func TestCrashReDissemination(t *testing.T) {
	g := topology.Grid(5, 5, 0.9)
	const victim, crashAt, rebootAt = 12, 50, 600
	fs := &fault.Schedule{Crashes: []fault.Crash{{Node: victim, At: crashAt, RebootAt: rebootAt}}}
	cfg := faultCfg(g, fs, 31)
	cfg.Coverage = 1 // force full coverage so the victim must be re-served
	p, err := New("opt")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Protocol = p
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Reboots != 1 {
		t.Fatalf("Crashes=%d Reboots=%d, want 1/1", res.Crashes, res.Reboots)
	}
	if res.CrashDropped == 0 {
		t.Error("crash at slot 50 dropped nothing; victim never held a packet?")
	}
	if !res.Completed {
		t.Fatal("flood did not complete despite reboot")
	}
	for pkt := 0; pkt < cfg.M; pkt++ {
		rt := res.NodeRecvTime[pkt][victim]
		if rt < rebootAt {
			t.Errorf("packet %d: victim's final reception at slot %d predates its reboot at %d",
				pkt, rt, rebootAt)
		}
	}
}

// TestJamBlocksReceptions checks the outage semantics: a jammed region
// records deterministic jam failures and no jammed node completes a
// reception inside the window.
func TestJamBlocksReceptions(t *testing.T) {
	g := topology.Grid(5, 5, 0.9)
	jam := fault.Jam{From: 0, Until: 300, Nodes: []int{6, 7, 8, 11, 12, 13}}
	fs := &fault.Schedule{Jams: []fault.Jam{jam}}
	cfg := faultCfg(g, fs, 8)
	p, err := New("naive")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Protocol = p
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JamFailures == 0 {
		t.Error("no jam failures recorded over a 300-slot outage on the flood's path")
	}
	if res.Failures() < res.JamFailures {
		t.Error("Failures() does not include JamFailures")
	}
	for pkt := 0; pkt < cfg.M; pkt++ {
		for _, node := range jam.Nodes {
			rt := res.NodeRecvTime[pkt][node]
			if rt >= 0 && rt >= jam.From && rt < jam.Until {
				t.Errorf("packet %d received by jammed node %d at slot %d inside [%d, %d)",
					pkt, node, rt, jam.From, jam.Until)
			}
		}
	}
}

// TestFaultValidationSurfacesInRun checks that sim.Run rejects an invalid
// schedule up front instead of running with it.
func TestFaultValidationSurfacesInRun(t *testing.T) {
	g := topology.Grid(4, 4, 0.9)
	cfg := faultCfg(g, &fault.Schedule{Crashes: []fault.Crash{{Node: 0, At: 1, RebootAt: -1}}}, 1)
	p, err := New("opt")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Protocol = p
	if _, err := sim.Run(cfg); err == nil {
		t.Fatal("Run accepted a schedule that crashes the source")
	}
}
