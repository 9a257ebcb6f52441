package runner

// Telemetry threading and the structured progress printer. The runner's
// counters live in the "runner." namespace (catalog in
// docs/OBSERVABILITY.md) and are resolved once per batch, so per-job
// updates are single atomic operations. The ETA and throughput figures in
// Progress and in the runner.eta_seconds / runner.slots_per_sec gauges are
// computed from the same done/slots/elapsed state inside the runner's one
// progress critical section — the hook and the registry can never report
// contradictory jobs-done counts.

import (
	"fmt"
	"io"
	"time"

	"ldcflood/internal/telemetry"
)

// runTel is the runner's resolved instrument set; nil when no registry is
// attached, making every update site one predictable branch.
type runTel struct {
	jobsTotal  *telemetry.Counter
	jobsDone   *telemetry.Counter
	jobsFailed *telemetry.Counter
	retries    *telemetry.Counter
	slots      *telemetry.Counter
	jrnAppends *telemetry.Counter
	jrnHits    *telemetry.Counter
	jobWall    *telemetry.Timer

	queueDepth  *telemetry.Gauge
	etaSeconds  *telemetry.Gauge
	slotsPerSec *telemetry.Gauge
}

// newRunTel resolves the runner counter set against reg and counts the
// batch's jobs into runner.jobs.total.
func newRunTel(reg *telemetry.Registry, jobs int) *runTel {
	rt := &runTel{
		jobsTotal:   reg.Counter("runner.jobs.total"),
		jobsDone:    reg.Counter("runner.jobs.done"),
		jobsFailed:  reg.Counter("runner.jobs.failed"),
		retries:     reg.Counter("runner.jobs.retries"),
		slots:       reg.Counter("runner.slots"),
		jrnAppends:  reg.Counter("runner.journal.appends"),
		jrnHits:     reg.Counter("runner.journal.hits"),
		jobWall:     reg.Timer("runner.job_wall"),
		queueDepth:  reg.Gauge("runner.queue.depth"),
		etaSeconds:  reg.Gauge("runner.eta_seconds"),
		slotsPerSec: reg.Gauge("runner.slots_per_sec"),
	}
	rt.jobsTotal.Add(int64(jobs))
	return rt
}

// Estimate derives the batch ETA and slot throughput from one consistent
// (done, slots, elapsed) observation: the ETA extrapolates the mean wall
// time per done job over the jobs left (0 before the first and after the
// last), and the rate is slots per elapsed second. The runner's Progress
// snapshot and telemetry gauges and floodd's job progress all use it, so
// every surface agrees.
func Estimate(done, total int, slots int64, elapsed time.Duration) (eta time.Duration, rate float64) {
	if done > 0 && done < total {
		eta = time.Duration(int64(elapsed) / int64(done) * int64(total-done))
	}
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(slots) / s
	}
	return eta, rate
}

// ProgressPrinter returns a Progress hook that writes a one-line structured
// snapshot to w at most once per every (and always for the final job):
//
//	jobs=128/512 failed=0 slots=3244032 slots_per_sec=1.6e+06 elapsed=2.1s eta=6.3s
//
// The hook keeps the runner's serialization contract (the runner already
// calls Progress under a lock), so the returned closure needs no locking of
// its own. every <= 0 prints every completion.
func ProgressPrinter(w io.Writer, every time.Duration) func(Progress) {
	var last time.Time
	return func(p Progress) {
		now := time.Now()
		if p.Done < p.Total && every > 0 && now.Sub(last) < every {
			return
		}
		last = now
		fmt.Fprintf(w, "jobs=%d/%d failed=%d slots=%d slots_per_sec=%.3g elapsed=%s eta=%s\n",
			p.Done, p.Total, p.Failed, p.Slots, p.SlotsPerSec,
			p.Elapsed.Round(time.Millisecond), p.ETA.Round(time.Millisecond))
	}
}
