package flood

// A decorator that embeds sim.Protocol hides the planner methods, so the
// engine admits the protocol's Intents like any plain protocol's; through
// sim.PlanIntents it must still flood byte for byte like the protocol it
// wraps. (TestShardEquivalenceGrid runs the same comparison on every
// fault family.)

import (
	"reflect"
	"strings"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// decorated has the shape of a timing decorator (floodbench's
// timedProtocol): it embeds sim.Protocol and overrides Reset and Intents,
// so the engine sees a plain protocol and never the planner underneath.
type decorated struct {
	sim.Protocol
	resets, calls int
}

func (d *decorated) Reset(w *sim.World) {
	d.resets++
	d.Protocol.Reset(w)
}

func (d *decorated) Intents(w *sim.World) []sim.Intent {
	d.calls++
	return d.Protocol.Intents(w)
}

// TestDecoratorHidingPlannerMatches wraps every protocol in a decorator
// that hides sim.ShardPlanner and requires the decorated run to reproduce
// the undecorated one — Result and both trace encodings — unfaulted and
// under the mixed fault schedule.
func TestDecoratorHidingPlannerMatches(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	for name, fs := range map[string]*fault.Schedule{"none": nil, "mixed": faultSchedules()["mixed"]} {
		cfg := shardCfg(g, fs, 1234)
		for _, protocol := range Names() {
			want, wantTrace := runSharded(t, cfg, protocol)
			inner, err := New(protocol)
			if err != nil {
				t.Fatal(err)
			}
			dec := &decorated{Protocol: inner}
			if _, ok := sim.Protocol(dec).(sim.ShardPlanner); ok {
				t.Fatal("decorator exposes the planner; the test would not exercise Intents")
			}
			got, gotTrace := runWith(t, cfg, dec)
			if dec.resets != 1 || dec.calls == 0 {
				t.Fatalf("%s: decorator saw %d resets and %d Intents calls", protocol, dec.resets, dec.calls)
			}
			context := protocol + "/" + name
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: decorated run diverged from the undecorated one", context)
			}
			equalTraces(t, wantTrace, gotTrace, context+" decorated vs undecorated")
		}
	}
}

// plannerShaped has the shape of a timing decorator that keeps the
// planner visible (floodbench's timedPlanner): it embeds sim.Protocol and
// forwards PlanReceiver and SelectIntents, and nothing else the wrapped
// protocol implements.
type plannerShaped struct {
	sim.Protocol
	sp sim.ShardPlanner
}

func (p plannerShaped) PlanReceiver(w *sim.World, r int, slot *rngutil.Stream, buf []sim.Candidate) []sim.Candidate {
	return p.sp.PlanReceiver(w, r, slot, buf)
}

func (p plannerShaped) SelectIntents(w *sim.World, plan *sim.SlotPlan, emit func(in sim.Intent, prr float64)) {
	p.sp.SelectIntents(w, plan, emit)
}

// TestPlannerForwardingDecoratorMatches wraps every protocol in a
// decorator that forwards only the planner methods and requires the
// decorated run to reproduce the undecorated one — Result and both trace
// encodings — unfaulted and under the mixed fault schedule. DFlood's calendar is brought up to each slot by the hook its
// Reset registers with the World, which the decorator forwards.
func TestPlannerForwardingDecoratorMatches(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	for name, fs := range map[string]*fault.Schedule{"none": nil, "mixed": faultSchedules()["mixed"]} {
		cfg := shardCfg(g, fs, 1234)
		for _, protocol := range Names() {
			want, wantTrace := runSharded(t, cfg, protocol)
			inner, err := New(protocol)
			if err != nil {
				t.Fatal(err)
			}
			got, gotTrace := runWith(t, cfg, plannerShaped{Protocol: inner, sp: inner.(sim.ShardPlanner)})
			context := protocol + "/" + name
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: decorated run diverged from the undecorated one", context)
			}
			equalTraces(t, wantTrace, gotTrace, context+" planner-forwarding decorator")
		}
	}
}

// hookDropped loses the OnPlanSlot hook its protocol registers at Reset.
type hookDropped struct{ sim.Protocol }

func (h hookDropped) Reset(w *sim.World) {
	h.Protocol.Reset(w)
	w.OnPlanSlot(nil)
}

// TestDFloodPanicsWithoutPlanSlotHook checks that DFlood refuses to
// select a slot its calendar was not prepared for, rather than planning
// from a stale ready set.
func TestDFloodPanicsWithoutPlanSlotHook(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	cfg := shardCfg(g, nil, 1234)
	cfg.Protocol = hookDropped{NewDFlood()}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "calendar was last prepared") {
			t.Fatalf("recovered %v, want DFlood's unprepared-calendar panic", r)
		}
	}()
	sim.Run(cfg)
	t.Fatal("DFlood ran without its plan-slot hook")
}
