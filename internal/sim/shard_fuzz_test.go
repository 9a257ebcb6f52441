package sim

// Fuzz target for the planner path: randomized graph sizes and schedule
// periods, asserting on every input that the planner path agrees with a
// plain Intents scan on the deterministic subspace.

import (
	"reflect"
	"testing"

	"ldcflood/internal/schedule"
)

// FuzzShardMerge drives the planner path and the plain-protocol admission
// path through randomized (line length, schedule period) combinations.
func FuzzShardMerge(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 3, 11, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		// On the deterministic subspace (RNG-free planner protocol, PRR 1,
		// no engine draws) the planner path must reproduce the protocol's
		// plain Intents scan exactly.
		n := 4 + int(seed%13)
		g := lineGraph(n, 1)
		period := 1 + int(seed/4)%8
		scheds := schedule.AssignStaggered(n, period)
		plain := edgeRunPlain(t, g, scheds)
		if got := edgeRun(t, g, scheds); !reflect.DeepEqual(got, plain) {
			t.Fatalf("seed %d: planner path diverged from the plain scan", seed)
		}
	})
}
