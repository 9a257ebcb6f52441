package sim

// Test hooks: the scale thresholds are production constants chosen for
// 10k–100k-node graphs, far above what unit tests can afford to construct.
// These helpers pin a threshold for one test body so the large-graph code
// paths (sparse compact plans, tiny worker shards) run on small
// topologies and can be certified byte-identical to the dense paths.

// setCompactSparse pins the compact plan's dense/sparse adjacency cutoff
// and returns a restore function.
func setCompactSparse(n int) func() {
	old := compactSparseNodes
	compactSparseNodes = n
	return func() { compactSparseNodes = old }
}

// setMinChunk pins the smallest shard handed to a pool worker and returns
// a restore function.
func setMinChunk(n int) func() {
	old := debugMinChunk
	debugMinChunk = n
	return func() { debugMinChunk = old }
}
