package sim

// Test hooks: the scale thresholds are production constants chosen for
// 10k–100k-node graphs, far above what unit tests can afford to construct.
// These helpers pin a threshold for one test body so the large-graph code
// paths (tiny worker shards) run on small topologies and can be certified
// byte-identical to the default geometry.

// setMinChunk pins the smallest shard handed to a pool worker and returns
// a restore function.
func setMinChunk(n int) func() {
	old := debugMinChunk
	debugMinChunk = n
	return func() { debugMinChunk = old }
}
