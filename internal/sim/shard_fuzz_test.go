package sim

// Fuzz target for the sharded merge path: randomized chunk sizes, worker
// counts, awake distributions (via the chaos configuration's random graph
// + schedule periods) and fault schedules, asserting the two byte-identity
// contracts on every input — worker-count invariance for arbitrary
// configurations, and agreement of the planner path with a plain Intents
// scan on the deterministic subspace.

import (
	"reflect"
	"testing"

	"ldcflood/internal/schedule"
)

// FuzzShardMerge drives the sharded resolver through adversarial
// (chunk size, worker count, fault family, topology) combinations.
func FuzzShardMerge(f *testing.F) {
	// Seed corpus: every fault family (seed % 4), the tiniest and the
	// default chunk floors, worker counts straddling the chunk count.
	f.Add(uint64(0), uint8(0), uint8(0))
	f.Add(uint64(1), uint8(3), uint8(1))
	f.Add(uint64(2), uint8(63), uint8(5))
	f.Add(uint64(3), uint8(7), uint8(3))
	f.Add(uint64(11), uint8(1), uint8(2))
	f.Add(uint64(42), uint8(15), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, minChunkRaw, workersRaw uint8) {
		restore := setMinChunk(1 + int(minChunkRaw)%64)
		defer restore()
		workers := 2 + int(workersRaw)%6

		// Contract 1: worker-count invariance under chaos — protocol
		// randomness, sync errors, capture, faults.
		base := chaosRun(t, seed, 1)
		if got := chaosRun(t, seed, workers); !reflect.DeepEqual(got, base) {
			t.Fatalf("seed %d: workers %d diverged from workers 1", seed, workers)
		}

		// Contract 2: on the deterministic subspace (RNG-free planner
		// protocol, PRR 1, no engine draws) the planner path must also
		// reproduce the protocol's plain Intents scan exactly.
		n := 4 + int(seed%13)
		g := lineGraph(n, 1)
		period := 1 + int(seed/4)%8
		scheds := schedule.AssignStaggered(n, period)
		plain := edgeRunPlain(t, g, scheds, 0)
		if got := edgeRun(t, g, scheds, workers); !reflect.DeepEqual(got, plain) {
			t.Fatalf("seed %d: planner path at workers %d diverged from the plain scan", seed, workers)
		}
	})
}
