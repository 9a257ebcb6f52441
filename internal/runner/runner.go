// Package runner executes batches of simulation jobs on a bounded worker
// pool with deterministic, input-ordered results.
//
// Every multi-run workload in this repository — the Fig. 9-11 evaluation
// sweeps, cmd/sweep's protocol × duty × seed grid, Monte-Carlo repetition
// batches — has the same shape: many independent sim.Config jobs whose
// outputs are aggregated afterwards. The runner makes that shape cheap and
// safe:
//
//   - Bounded parallelism. Options.Workers (default GOMAXPROCS) caps
//     concurrent simulations instead of spawning one goroutine per job.
//   - Determinism. sim.Run is bit-for-bit reproducible for a given Config,
//     the runner injects no randomness, and results land in input order,
//     so a batch's output is a pure function of its job slice — identical
//     for workers=1 and workers=N. Seeds derives decorrelated per-job
//     seeds from one base seed to keep it that way.
//   - Fault isolation. A job that panics, exceeds its wall-clock or slot
//     budget, or is overtaken by context cancellation becomes a typed
//     *JobError in its result slot; the rest of the batch completes.
//   - Observability. Options.Progress streams per-job completion
//     snapshots (jobs done, failures, slots simulated, elapsed time, ETA,
//     throughput) that cmd/sweep and cmd/figures surface, and
//     Options.Telemetry feeds the same figures into a live
//     telemetry.Registry for the -debug-addr endpoints.
//
// See docs/RUNNER.md for the full semantics.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
)

// Options configures a batch run. The zero value is valid: GOMAXPROCS
// workers, no timeout, no slot limit, no progress hook.
type Options struct {
	// Workers bounds how many jobs simulate concurrently; <= 0 uses
	// runtime.GOMAXPROCS(0). The worker count affects wall-clock time
	// only, never results.
	Workers int
	// Timeout is the per-job wall-clock budget. A job that exceeds it is
	// interrupted and reported as a *JobError of kind KindTimeout while
	// the rest of the batch keeps running. 0 means no limit. Because wall
	// clocks depend on machine load, leave Timeout zero when byte-identical
	// batch output matters more than bounded latency.
	Timeout time.Duration
	// SlotLimit is the per-job simulated-slot budget. Unlike
	// sim.Config.MaxSlots — which ends a run gracefully with
	// Completed=false — exceeding SlotLimit fails the job with a *JobError
	// of kind KindSlotLimit. Being measured in simulated time, it is
	// deterministic, unlike Timeout. 0 means no limit.
	SlotLimit int64
	// Progress, when non-nil, is called after every job finishes (success
	// or failure). Calls are serialized by the runner, so the hook need
	// not be safe for concurrent use; it runs on worker goroutines and
	// must be fast.
	Progress func(Progress)
	// Retries is how many times a job whose failure kind is retryable
	// (Kind.Retryable: timeout, panic) is re-run before its *JobError is
	// recorded. 0 disables retries. Retries never change successful
	// results — sim.Run is deterministic — they only give transiently
	// failing jobs more chances.
	Retries int
	// RetryBackoff is the wait before the first retry; each further retry
	// doubles it (exponential backoff), scaled by a deterministic jitter
	// factor in [0.5, 1.0) seeded per job index — simultaneous retries
	// across a batch (or across distributed workers hammering one daemon)
	// de-synchronize instead of thundering-herding, and the delays are a
	// pure function of (backoff, index, attempt), identical for every
	// worker count. The wait is context-aware: batch cancellation ends it
	// immediately. 0 retries back to back.
	RetryBackoff time.Duration
	// Journal, when non-nil, checkpoints the batch: each successful job is
	// appended to the journal as it completes, and jobs already present
	// (from a previous, interrupted run of the same batch) are served from
	// it without simulating. See OpenJournal.
	Journal *Journal
	// Telemetry, when non-nil, receives live batch counters and gauges in
	// the "runner." namespace (see docs/OBSERVABILITY.md for the catalog).
	// The registry may be shared across concurrent batches — counters
	// accumulate; gauges reflect the batch that updated them last. The ETA
	// and throughput gauges are computed from the same state as the
	// matching Progress fields, so the two surfaces always agree. Telemetry
	// never affects results.
	Telemetry *telemetry.Registry
}

// Progress is a snapshot of batch progress passed to Options.Progress. All
// fields come from one consistent observation: ETA and SlotsPerSec are
// derived from Done, Slots, and Elapsed inside the same critical section
// that produced them (and that feeds the telemetry gauges).
type Progress struct {
	Done        int           // jobs finished so far, failures included
	Failed      int           // jobs finished with a *JobError
	Total       int           // batch size
	Slots       int64         // simulated slots completed so far
	Elapsed     time.Duration // wall-clock time since the batch started
	ETA         time.Duration // projected time to batch completion; 0 until the first job lands and after the last
	SlotsPerSec float64       // simulated-slot throughput so far
}

// Stats summarizes a finished batch.
type Stats struct {
	Jobs   int           // batch size
	Failed int           // jobs that ended in a *JobError
	Slots  int64         // simulated slots across all successful jobs
	Wall   time.Duration // wall-clock time for the whole batch
}

// Result is one job's outcome. Exactly one of Res and Err is non-nil.
type Result struct {
	Index int         // position in the input slice
	Res   *sim.Result // simulation output, nil on failure
	Err   error       // nil, or a *JobError describing the failure
}

// Results is a batch outcome in input order: rs[i] belongs to jobs[i].
type Results []Result

// Err returns the first job failure in input order, or nil.
func (rs Results) Err() error {
	for i := range rs {
		if rs[i].Err != nil {
			return rs[i].Err
		}
	}
	return nil
}

// Sims unwraps the per-job simulation results, in input order, failing on
// the batch's first job error.
func (rs Results) Sims() ([]*sim.Result, error) {
	if err := rs.Err(); err != nil {
		return nil, err
	}
	out := make([]*sim.Result, len(rs))
	for i := range rs {
		out[i] = rs[i].Res
	}
	return out, nil
}

// Run executes jobs on a bounded worker pool and returns one Result per
// job in input order, plus batch statistics.
//
// Determinism: results depend only on the job slice — not on
// Options.Workers, machine load, or completion order — because each job's
// randomness is fully determined by its Config and the runner assigns
// results by input index. Options.Timeout is the one escape hatch: it
// trades that guarantee for bounded latency.
//
// Fault isolation: a job that panics, exceeds Timeout or SlotLimit, or is
// overtaken by ctx cancellation yields a *JobError in its slot; other jobs
// are unaffected. Once ctx is cancelled, running jobs are interrupted at
// their next poll and jobs not yet started fail immediately without
// simulating anything.
func Run(ctx context.Context, jobs []sim.Config, opts Options) (Results, Stats) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make(Results, len(jobs))
	start := time.Now()
	var tel *runTel
	if opts.Telemetry != nil {
		tel = newRunTel(opts.Telemetry, len(jobs))
	}
	var (
		mu     sync.Mutex
		done   int
		failed int
		slots  int64
		next   atomic.Int64
		wg     sync.WaitGroup
	)
	finish := func(i int, res *sim.Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		results[i] = Result{Index: i, Res: res, Err: err}
		done++
		if err != nil {
			failed++
		}
		var jobSlots int64
		if res != nil {
			jobSlots = res.TotalSlots
			slots += jobSlots
		}
		if tel == nil && opts.Progress == nil {
			return
		}
		// One observation feeds both surfaces (see Progress): the hook and
		// the registry can never disagree on jobs done or the ETA.
		elapsed := time.Since(start)
		eta, rate := estimate(done, len(jobs), slots, elapsed)
		if tel != nil {
			tel.jobsDone.Inc()
			if err != nil {
				tel.jobsFailed.Inc()
			}
			tel.slots.Add(jobSlots)
			tel.queueDepth.Set(int64(len(jobs) - done))
			tel.etaSeconds.Set(int64(eta / time.Second))
			tel.slotsPerSec.Set(int64(rate))
		}
		if opts.Progress != nil {
			opts.Progress(Progress{
				Done: done, Failed: failed, Total: len(jobs),
				Slots: slots, Elapsed: elapsed,
				ETA: eta, SlotsPerSec: rate,
			})
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if opts.Journal != nil {
					if res, ok := opts.Journal.Done(i); ok {
						if tel != nil {
							tel.jrnHits.Inc()
						}
						finish(i, res, nil)
						continue
					}
				}
				if ctx.Err() != nil {
					finish(i, nil, &JobError{Index: i, Kind: cancelKind(ctx), Err: cancelCause(ctx)})
					continue
				}
				jobStart := time.Now()
				res, err := runJob(ctx, i, jobs[i], opts)
				for attempt := 0; err != nil && attempt < opts.Retries && retryable(err); attempt++ {
					if !backoff(ctx, retryDelay(opts.RetryBackoff, i, attempt)) {
						break
					}
					if tel != nil {
						tel.retries.Inc()
					}
					res, err = runJob(ctx, i, jobs[i], opts)
				}
				if tel != nil {
					// One observation per job, retries and backoff included:
					// the timer answers "what does a job cost this batch",
					// not "how fast is one sim.Run".
					tel.jobWall.Observe(time.Since(jobStart))
				}
				if err == nil && opts.Journal != nil {
					opts.Journal.record(i, res)
					if tel != nil {
						tel.jrnAppends.Inc()
					}
				}
				finish(i, res, err)
			}
		}()
	}
	wg.Wait()
	return results, Stats{Jobs: len(jobs), Failed: failed, Slots: slots, Wall: time.Since(start)}
}

// retryable reports whether err is a *JobError of a retryable kind.
func retryable(err error) bool {
	var je *JobError
	return errors.As(err, &je) && je.Kind.Retryable()
}

// cancelKind classifies a context cancellation: KindShutdown when the
// cancellation cause wraps ErrShutdown (a drain),
// KindCanceled for every other cancellation or deadline.
func cancelKind(ctx context.Context) Kind {
	if errors.Is(context.Cause(ctx), ErrShutdown) {
		return KindShutdown
	}
	return KindCanceled
}

// cancelCause is the error recorded as a cancelled job's underlying cause:
// the context's cancellation cause when one was supplied (so a drain's
// ErrShutdown or a caller's custom reason survives into the JobError), the
// plain context error otherwise. For a cause-less cancellation
// context.Cause returns context.Canceled itself, preserving the historical
// errors.Is(err, context.Canceled) behavior.
func cancelCause(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return ctx.Err()
}

// retryDelay computes the wait before retry attempt (0-based) of job
// index: RetryBackoff doubled per prior attempt (capped at 16 doublings
// so the shift can never overflow), scaled by rngutil.Jitter keyed on
// (index, attempt). A pure function of its arguments — the schedule of
// delays is identical for every Options.Workers value and across
// machines, preserving the runner's determinism story.
func retryDelay(base time.Duration, index, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt
	if shift > 16 {
		shift = 16
	}
	return rngutil.Jitter(base<<uint(shift), uint64(index)<<20^uint64(attempt))
}

// backoff sleeps for d (0 returns immediately) unless the context ends
// first; it reports whether the caller should proceed with the retry.
func backoff(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// pollEvery is how many slots pass between the comparatively expensive
// context and clock checks inside the engine's Interrupt hook. The slot
// limit is checked every slot so it stays exact.
const pollEvery = 64

// runJob executes one job with panic recovery and interrupt plumbing.
func runJob(ctx context.Context, index int, cfg sim.Config, opts Options) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &JobError{
				Index: index,
				Kind:  KindPanic,
				Err:   fmt.Errorf("panic: %v", r),
				Stack: debug.Stack(),
			}
		}
	}()

	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	// kind records why our hook aborted the run; it stays KindSim when the
	// engine fails on its own (or a caller-supplied hook fires).
	kind := KindSim
	prev := cfg.Interrupt
	var polls int64
	cfg.Interrupt = func(slot int64) bool {
		if prev != nil && prev(slot) {
			return true
		}
		if opts.SlotLimit > 0 && slot >= opts.SlotLimit {
			kind = KindSlotLimit
			return true
		}
		if polls++; polls%pollEvery != 0 {
			return false
		}
		if ctx.Err() != nil {
			kind = cancelKind(ctx)
			return true
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			kind = KindTimeout
			return true
		}
		return false
	}

	r, err := sim.Run(cfg)
	if err != nil {
		// When the abort came from the runner's own hook, replace the
		// engine's interrupt error as the cause: a runner-imposed timeout or
		// budget is not a sim.ErrInterrupted condition (that sentinel is for
		// caller-supplied Interrupt hooks — see the JobError contract).
		switch kind {
		case KindTimeout:
			err = fmt.Errorf("exceeded wall-clock budget %v", opts.Timeout)
		case KindSlotLimit:
			err = fmt.Errorf("exceeded slot budget %d", opts.SlotLimit)
		case KindCanceled, KindShutdown:
			err = cancelCause(ctx)
		}
		return nil, &JobError{Index: index, Kind: kind, Err: err}
	}
	return r, nil
}
