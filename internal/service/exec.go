package service

// How every job executes: as a set of leasable chunks arbitrated by
// internal/lease. Remote floodworker processes pull chunks over the HTTP
// endpoints in http.go; the daemon's own local executor pulls through
// exactly the same code path (after LocalGrace), so a daemon that no
// worker ever connects to runs a lease job with zero remote workers — and
// still completes it.
//
// Results flow through the job's journal — every accepted cell is
// appended via Journal.Record, idempotently by index — which is what makes
// the final CSV byte-identical to a single-process run no matter how many
// workers died, how many chunks were reassigned, or how many zombie
// completions were dropped along the way. docs/SERVICE.md ("Job
// execution") is the protocol reference.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ldcflood/internal/lease"
	"ldcflood/internal/runner"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
)

// LeaseRequest is the JSON body of POST /v1/jobs/{id}/lease.
type LeaseRequest struct {
	// Worker is the claimant's self-reported name (diagnostics only).
	Worker string `json:"worker"`
}

// LeaseGrant is the JSON reply to a successful lease claim.
type LeaseGrant struct {
	// Lease is the opaque lease id presented back on heartbeat/complete.
	Lease string `json:"lease"`
	// Chunk is the claimed chunk's id.
	Chunk int `json:"chunk"`
	// Cells are the global batch indices to execute (indices into the
	// grid the worker compiles from the job's Spec).
	Cells []int `json:"cells"`
	// Deadline is when the lease expires unless renewed.
	Deadline time.Time `json:"deadline"`
	// TTL is the lease lifetime; workers heartbeat at a fraction of it.
	TTL Duration `json:"ttl"`
	// Key is the job's journal key. Workers verify the grid they compiled
	// locally produces the same key before executing — a mismatch means
	// daemon/worker version skew and executing would corrupt the sweep.
	Key string `json:"key"`
}

// CellOutcome is one cell's result inside a CompleteRequest: either a
// simulation result (success) or an error description (failure).
type CellOutcome struct {
	// Index is the cell's global batch index.
	Index int `json:"index"`
	// Res is the simulation output; nil when Error is set.
	Res *sim.Result `json:"res,omitempty"`
	// Error is the failure text for a cell that still failed after the
	// spec's retries; it fails the job.
	Error string `json:"error,omitempty"`
}

// CompleteRequest is the JSON body of POST
// /v1/jobs/{id}/lease/{lease}/complete.
type CompleteRequest struct {
	// Worker is the reporting worker's name (diagnostics only).
	Worker string `json:"worker"`
	// Key must match the job's journal key (the one the grant carried);
	// a mismatch rejects the whole report.
	Key string `json:"key"`
	// Results holds one outcome per cell the worker executed.
	Results []CellOutcome `json:"results"`
}

// CompleteReply is the JSON verdict on a completion report.
type CompleteReply struct {
	// Accepted counts cells persisted to the journal from this report.
	Accepted int `json:"accepted"`
	// Dropped counts cells someone else had already completed (zombie
	// duplicates, dropped to keep per-cell idempotency).
	Dropped int `json:"dropped"`
	// Zombie reports that the completing lease had expired or was unknown:
	// the worker outlived its ownership.
	Zombie bool `json:"zombie"`
}

// HeartbeatReply is the JSON reply to a lease renewal.
type HeartbeatReply struct {
	// Deadline is the lease's renewed expiry.
	Deadline time.Time `json:"deadline"`
}

// WorkReply is the JSON reply of GET /v1/work: the job currently
// accepting leases.
type WorkReply struct {
	// ID is the running job's id.
	ID string `json:"id"`
}

// jobRun is the live state of one job execution: the lease manager plus
// everything a completion report needs (the grid for validation, the
// journal for persistence, the job for progress fan-out).
type jobRun struct {
	mgr   *lease.Manager
	grid  *Grid
	jrn   *runner.Journal
	key   string
	ttl   time.Duration
	job   *Job
	start time.Time
	// cellStart is the service's worker hook (Service.cellStart).
	cellStart func()

	mu     sync.Mutex
	slots  int64 // simulated slots accumulated (journaled + accepted)
	closed bool  // the job is settling; later reports are not journaled
}

// runJob executes one job through the lease manager and settles its fate:
// every chunk done → done, drain → requeued, user cancel → canceled, wall
// clock or a failed cell → failed.
func (s *Service) runJob(j *Job) {
	grid, err := Compile(j.spec)
	if err != nil {
		s.settle(j, StateFailed, err.Error())
		return
	}
	jrn, err := grid.OpenJournal(filepath.Join(j.dir, "journal.jsonl"), true)
	if err != nil {
		s.settle(j, StateFailed, err.Error())
		return
	}
	defer jrn.Close()

	// Cells already in the journal (a resumed job) are done by definition;
	// only the remainder is leased out.
	var remaining []int
	var slots int64
	for i := range grid.Jobs {
		if res, ok := jrn.Done(i); ok {
			slots += res.TotalSlots
		} else {
			remaining = append(remaining, i)
		}
	}
	lo := s.opts.Lease
	ttl := lo.TTL
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	h := fnv.New64a()
	h.Write([]byte(grid.JournalKey()))
	mgr := lease.NewManager(lease.Config{
		Cells:       remaining,
		ChunkSize:   lo.ChunkSize,
		TTL:         ttl,
		MaxAttempts: lo.MaxAttempts,
		Seed:        h.Sum64(),
		Telemetry:   j.Registry,
	})
	r := &jobRun{
		mgr: mgr, grid: grid, jrn: jrn, key: grid.JournalKey(),
		ttl: ttl, job: j, start: time.Now(), slots: slots,
		cellStart: s.cellStart,
	}
	chunks := mgr.Snapshot().Chunks

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	if s.opts.JobTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeoutCause(ctx, s.opts.JobTimeout, errJobWall)
		defer tcancel()
	}

	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.resumed = jrn.Completed()
	j.stop = func(cause error) { cancel(cause) }
	j.run = r
	userCanceled := j.canceled
	j.mu.Unlock()
	s.logf("job %s: running (%d cells, %d journaled, %d chunks)", j.ID, len(grid.Cells), jrn.Completed(), chunks)

	// Close the drain race: Drain may have set draining between the
	// scheduler popping this job and the stopper landing in j.stop.
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		cancel(runner.ErrShutdown)
	}
	if userCanceled {
		cancel(errUserCancel)
	}

	if jrn.Completed() > 0 {
		// A resumed job reports its journaled cells before the first chunk.
		r.mu.Lock()
		r.observeLocked()
		r.mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(2)
	// The sweeper: expired leases must requeue even when no protocol call
	// arrives to trigger a lazy sweep (every worker dead at once).
	go func() {
		defer wg.Done()
		tick := time.NewTicker(ttl / 4)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-mgr.Finished():
				return
			case <-tick.C:
				if n := mgr.Expire(time.Now()); n > 0 {
					s.logf("job %s: %d lease(s) expired, chunks requeued", j.ID, n)
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		r.localExec(ctx, lo.LocalGrace, grid.Spec.Parallel)
	}()

	select {
	case <-mgr.Finished():
	case <-ctx.Done():
		mgr.Stop(context.Cause(ctx))
	}
	cancel(nil)
	wg.Wait()
	// A remote report the manager already accepted finishes journaling
	// before the journal is read; later reports are turned away.
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()

	if err := jrn.Err(); err != nil {
		s.logf("job %s: journal degraded: %v", j.ID, err)
	}

	ferr := mgr.Err()
	switch {
	case ferr == nil:
		// Every chunk completed; the journal is the single source of truth
		// for the per-cell results.
		rs := make(runner.Results, len(grid.Jobs))
		for i := range rs {
			res, ok := jrn.Done(i)
			if !ok {
				s.settle(j, StateFailed, fmt.Sprintf("cell %d missing from journal after completion", i))
				return
			}
			rs[i] = runner.Result{Index: i, Res: res}
		}
		if err := s.writeResult(j, grid, rs); err != nil {
			s.settle(j, StateFailed, err.Error())
			return
		}
		s.settle(j, StateDone, "")
	case errors.Is(ferr, runner.ErrShutdown):
		// Drained mid-run: back to queued, no terminal status on disk —
		// the next daemon re-queues and the journal resumes the job.
		j.mu.Lock()
		j.state = StateQueued
		j.stop = nil
		j.run = nil
		j.mu.Unlock()
		s.logf("job %s: interrupted by drain, will resume on restart", j.ID)
	case errors.Is(ferr, errUserCancel):
		s.settle(j, StateCanceled, errUserCancel.Error())
	case errors.Is(ferr, errJobWall):
		s.settle(j, StateFailed, fmt.Sprintf("job exceeded wall-clock budget %v", s.opts.JobTimeout))
	default:
		// A failed cell or a chunk that lost too many leases.
		s.settle(j, StateFailed, ferr.Error())
	}
}

// localIdlePoll is how often the local executor re-asks for work while
// every chunk is leased out or backing off.
const localIdlePoll = 50 * time.Millisecond

// localCell is one cell of a locally leased chunk, handed to a worker.
type localCell struct {
	chunk *localChunk
	pos   int // position in the chunk's cells
}

// localChunk tracks one locally leased chunk while its cells run on the
// local workers; the last cell to settle ends it.
type localChunk struct {
	lease  *lease.Lease
	stopHB context.CancelFunc // ends the chunk's heartbeat

	mu     sync.Mutex
	left   int           // cells not yet settled
	failed []CellOutcome // cells that still failed after the spec's retries
}

// localExec is the daemon's own executor: parallel workers (<= 0 means
// GOMAXPROCS) that simulate cells one at a time, fed from chunks claimed
// through the same lease protocol remote workers use. A job therefore
// completes even when no worker ever connects, and the daemon competes
// fairly with workers instead of hoarding chunks: it claims a chunk only
// when a worker is free to start it. A chunk's cells spread over every
// free worker, so a small job runs its cells in parallel and a large
// job's tail does not wait on one chunk simulated serially. Each cell is
// journaled as it finishes, so a drain or crash loses only the cells
// still simulating.
func (r *jobRun) localExec(ctx context.Context, grace time.Duration, parallel int) {
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return
		case <-r.mgr.Finished():
			return
		}
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	cells := make(chan localCell)
	var wg sync.WaitGroup
	wg.Add(parallel)
	for range parallel {
		go func() {
			defer wg.Done()
			for c := range cells {
				idx := c.chunk.lease.Cells[c.pos]
				if r.cellStart != nil {
					r.cellStart()
				}
				outs, err := RunChunk(ctx, r.grid, []int{idx}, 1, r.job.Registry)
				if err != nil {
					outs = []CellOutcome{{Index: idx, Error: err.Error()}}
				}
				if outs[0].Res != nil {
					r.accept(idx, outs[0].Res)
				}
				if c.chunk.settle(1, outs[0]) {
					r.finishChunk(ctx, c.chunk)
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(cells)

	for ctx.Err() == nil {
		l, err := r.mgr.Lease("local")
		switch {
		case errors.Is(err, lease.ErrFinished):
			return
		case errors.Is(err, lease.ErrNoWork):
			t := time.NewTimer(localIdlePoll)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return
			case <-r.mgr.Finished():
				t.Stop()
				return
			}
		case err != nil:
			return
		default:
			c := r.startChunk(ctx, l)
			for pos := range l.Cells {
				select {
				case cells <- localCell{chunk: c, pos: pos}:
				case <-ctx.Done():
					// Torn down before these cells started: they settle
					// unsimulated.
					if c.settle(len(l.Cells)-pos, CellOutcome{}) {
						r.finishChunk(ctx, c)
					}
					return
				}
			}
		}
	}
}

// startChunk begins tracking a locally leased chunk, heartbeating its
// lease until the chunk reports.
func (r *jobRun) startChunk(ctx context.Context, l *lease.Lease) *localChunk {
	hbCtx, stop := context.WithCancel(ctx)
	c := &localChunk{lease: l, stopHB: stop, left: len(l.Cells)}
	go func() {
		tick := time.NewTicker(r.ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				// A failed renewal (the lease expired anyway) is settled at
				// completion time; the zombie path makes it harmless.
				r.mgr.Heartbeat(l.ID) //nolint:errcheck // see above
			}
		}
	}()
	return c
}

// settle records n settled cells of the chunk, with out the outcome of
// the one that finished (zero for cells that never started), and reports
// whether they were the chunk's last.
func (c *localChunk) settle(n int, out CellOutcome) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if out.Error != "" {
		c.failed = append(c.failed, out)
	}
	c.left -= n
	return c.left == 0
}

// accept journals one locally simulated cell as soon as it finishes,
// marking it done outside any completion report; the chunk's lease ends
// once every cell is covered. A cell a remote worker already reported is
// dropped.
func (r *jobRun) accept(idx int, res *sim.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || len(r.mgr.MarkDone([]int{idx})) == 0 {
		return
	}
	r.jrn.Record(idx, res)
	r.slots += res.TotalSlots
	r.observeLocked()
}

// finishChunk ends a chunk whose cells have all settled. Its finished
// cells are journaled already; a cell that still failed after the spec's
// retries is reported through the same completion path the HTTP handler
// uses, which fails the job. After cancellation (drain, cancel, wall
// clock, a failed cell elsewhere) the failures are cancellations, and
// the stopped job needs no report.
func (r *jobRun) finishChunk(ctx context.Context, c *localChunk) {
	c.stopHB()
	if len(c.failed) > 0 && ctx.Err() == nil {
		r.apply(c.lease.ID, c.failed) //nolint:errcheck // the job is failing either way
	}
}

// RunChunk simulates the given grid cells — the one chunk executor that
// floodd's local executor and cmd/floodworker share — on at most workers
// concurrent runs (<= 0 means GOMAXPROCS), applying the spec's timeout,
// retries and backoff to every cell. It returns one outcome per cell, in
// order: the result, or the failure text of a cell that still failed
// after its retries (its runner error names the grid index, not the
// position in the chunk). reg, when non-nil, receives the runner.* and
// engine counters. A cell outside the grid is an error and nothing runs.
// Once ctx is cancelled the unfinished cells fail as cancelled, so a
// report made after cancellation must carry only the finished ones.
func RunChunk(ctx context.Context, grid *Grid, cells []int, workers int, reg *telemetry.Registry) ([]CellOutcome, error) {
	cfgs := make([]sim.Config, len(cells))
	for i, idx := range cells {
		if idx < 0 || idx >= len(grid.Jobs) {
			return nil, fmt.Errorf("cell %d outside the %d-cell grid", idx, len(grid.Jobs))
		}
		cfgs[i] = grid.Jobs[idx]
		cfgs[i].Telemetry = reg
	}
	ropts := grid.Options()
	ropts.Workers = workers
	ropts.Telemetry = reg
	rs, _ := runner.Run(ctx, cfgs, ropts)
	outs := make([]CellOutcome, len(rs))
	for i := range rs {
		outs[i] = CellOutcome{Index: cells[i], Res: rs[i].Res}
		if err := rs[i].Err; err != nil {
			var je *runner.JobError
			if errors.As(err, &je) {
				je.Index = cells[i]
			}
			outs[i].Error = err.Error()
		}
	}
	return outs, nil
}

// apply validates and applies one completion report — the single path
// shared by the HTTP complete handler and the local executor's failure
// reports. Accepted
// cells are journaled; duplicates (zombie double-completions) are
// dropped; a failed cell fails the job, named by its grid description.
// The returned error is ErrLeaseGone for an unhonored lease, or a
// validation error (HTTP 400) for a malformed report.
func (r *jobRun) apply(id string, outs []CellOutcome) (CompleteReply, error) {
	var cells, failed []int
	byIdx := make(map[int]*sim.Result, len(outs))
	var errText string
	for _, o := range outs {
		if o.Index < 0 || o.Index >= len(r.grid.Cells) {
			return CompleteReply{}, fmt.Errorf("cell %d outside the %d-cell grid", o.Index, len(r.grid.Cells))
		}
		if o.Error != "" {
			if errText == "" {
				errText = fmt.Sprintf("%s: %s", r.grid.Cells[o.Index], o.Error)
			}
			failed = append(failed, o.Index)
			continue
		}
		if o.Res == nil {
			return CompleteReply{}, fmt.Errorf("cell %d: success outcome carries no result", o.Index)
		}
		if _, dup := byIdx[o.Index]; dup {
			continue
		}
		cells = append(cells, o.Index)
		byIdx[o.Index] = o.Res
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return CompleteReply{Zombie: true}, lease.ErrLeaseGone
	}
	acc, err := r.mgr.Complete(id, cells, failed, errText)
	reply := CompleteReply{Accepted: len(acc.Cells), Dropped: acc.Dropped, Zombie: acc.Zombie}
	var pe *lease.PoisonError
	if err != nil && !errors.As(err, &pe) {
		return reply, err
	}
	// A poisoning report still lands the cells it finished; the manager
	// has settled and runJob is failing the job.
	for _, idx := range acc.Cells {
		res := byIdx[idx]
		r.jrn.Record(idx, res)
		r.slots += res.TotalSlots
	}
	if len(acc.Cells) > 0 {
		r.observeLocked()
	}
	return reply, nil
}

// observeLocked fans a progress snapshot of the journaled cells out to
// the job's subscribers; callers hold r.mu.
func (r *jobRun) observeLocked() {
	done, total := r.jrn.Completed(), len(r.grid.Jobs)
	elapsed := time.Since(r.start)
	var eta time.Duration
	var rate float64
	if sec := elapsed.Seconds(); sec > 0 {
		rate = float64(r.slots) / sec
	}
	if done > 0 && done < total {
		eta = time.Duration(float64(elapsed) / float64(done) * float64(total-done))
	}
	r.job.observe(runner.Progress{
		Done: done, Total: total, Slots: r.slots,
		Elapsed: elapsed, ETA: eta, SlotsPerSec: rate,
	})
}
