package runner

import "runtime"

// SplitParallelism divides a machine parallelism budget between the two
// layers that can use it: the batch runner's job-level workers
// (Options.Workers) and the engine's per-run shard workers
// (sim.Config.Workers). Job-level parallelism is perfectly independent, so
// it is filled first — up to the number of jobs available — and whatever
// budget remains multiplies into shard workers per job. budget <= 0 means
// GOMAXPROCS; jobs < 1 is treated as one job.
//
// The returned shardWorkers is always >= 1. The split never changes
// results: the engine's output is identical for every sim.Config.Workers
// value. batchWorkers * shardWorkers never exceeds max(budget,
// jobs-clamped minimums).
func SplitParallelism(budget, jobs int) (batchWorkers, shardWorkers int) {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	if jobs < 1 {
		jobs = 1
	}
	batchWorkers = budget
	if jobs < batchWorkers {
		batchWorkers = jobs
	}
	shardWorkers = budget / batchWorkers
	if shardWorkers < 1 {
		shardWorkers = 1
	}
	return batchWorkers, shardWorkers
}
