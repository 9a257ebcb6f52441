package sim

// Test hooks. The scale thresholds are production constants chosen for
// 10k–100k-node graphs, far above what unit tests can afford to construct;
// setMinChunk pins one for a test body so the large-graph code paths (tiny
// worker shards) run on small topologies and can be certified
// byte-identical to the default geometry. RunEverySlot is exported to the
// package's external tests, which flood real protocols from package flood.

// setMinChunk pins the smallest shard handed to a pool worker and returns
// a restore function.
func setMinChunk(n int) func() {
	old := debugMinChunk
	debugMinChunk = n
	return func() { debugMinChunk = old }
}

// RunEverySlot is Run without the awake plan: the loop scans every
// schedule on every slot and visits every slot. It is the reference the
// empty-offset skip must reproduce bit for bit.
func RunEverySlot(cfg Config) (*Result, error) { return run(cfg, true) }
