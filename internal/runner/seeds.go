package runner

import "ldcflood/internal/rngutil"

// Seeds derives n decorrelated job seeds from one base seed. Seed i is a
// pure function of (base, i) — independent of worker count and execution
// order — so a batch seeded this way is reproducible by construction: the
// foundation of the runner's workers=1 ≡ workers=N guarantee.
func Seeds(base uint64, n int) []uint64 {
	root := rngutil.New(base).SubName("runner")
	out := make([]uint64, n)
	for i := range out {
		out[i] = root.Sub(uint64(i)).Uint64()
	}
	return out
}
