package flood

// A decorator that embeds sim.Protocol hides the planner methods, so the
// engine admits the protocol's Intents like any plain protocol's; through
// sim.PlanIntents it must still flood byte for byte like the protocol it
// wraps. (That Config.Workers never changes a result — 0 and 1 inline,
// more on the pool — is TestShardEquivalenceGrid's.)

import (
	"reflect"
	"testing"

	"ldcflood/internal/fault"
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
		for _, protocol := range allProtocols() {
			want, wantTrace := runSharded(t, cfg, protocol, 0)
			inner, err := New(protocol)
			if err != nil {
				t.Fatal(err)
			}
			dec := &decorated{Protocol: inner}
			if _, ok := sim.Protocol(dec).(sim.ShardPlanner); ok {
				t.Fatal("decorator exposes the planner; the test would not exercise Intents")
			}
			got, gotTrace := runWith(t, cfg, dec, 0)
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
