package service

// The job scheduler and its on-disk state. One Service owns a bounded
// FIFO queue and a single scheduler goroutine: jobs execute one at a
// time in submission order, each as leasable chunks (exec.go) that the
// daemon's local executor and any remote floodworker pull, free to use
// the whole machine (the spec's Parallel knob). Every job lives in its
// own directory —
//
//	<dir>/<id>/spec.json      the submitted spec (+ id, creation time)
//	<dir>/<id>/journal.jsonl  the runner journal, appended as chunks land
//	<dir>/<id>/result.csv     the artifact, written atomically on success
//	<dir>/<id>/status.json    the terminal Status, written exactly once
//
// — which makes the daemon crash-safe by construction: a job with no
// status.json is simply re-queued on the next startup, its journal
// replays the finished cells, and the completed result is byte-identical
// to an uninterrupted run (the runner's journal contract). Draining is
// the deliberate version of the same path: stop the active job with
// runner.ErrShutdown, leave no terminal status, exit.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"ldcflood/internal/runner"
	"ldcflood/internal/telemetry"
)

// Submission and lookup failures, mapped to HTTP statuses by the handler
// (429, 503, 404, 409).
var (
	// ErrQueueFull: the bounded queue is at Options.QueueLimit live jobs.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining: the service is shutting down and not accepting jobs.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrUnknownJob: no job with that id.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobTerminal: the job already reached a terminal state.
	ErrJobTerminal = errors.New("service: job already finished")
)

// errUserCancel is the cancellation cause for DELETE /v1/jobs/{id}; it is
// deliberately not runner.ErrShutdown, so the runner classifies the
// interruption as KindCanceled and the job lands in StateCanceled.
var errUserCancel = errors.New("service: canceled by user")

// errJobWall is the cancellation cause for a per-job wall-clock overrun
// (Options.JobTimeout).
var errJobWall = errors.New("service: job exceeded wall-clock budget")

// Options configures a Service. Dir is required; zero values elsewhere
// mean: queue limit 16, no per-job timeout, a fresh private registry, no
// logging.
type Options struct {
	// Dir is the job state root. Created if missing; a previous daemon's
	// unfinished jobs found here are re-queued and resumed.
	Dir string
	// QueueLimit bounds live (queued + running) jobs; submissions beyond
	// it fail with ErrQueueFull. <= 0 means 16. Jobs resurrected from Dir
	// at startup are exempt — they were admitted once already.
	QueueLimit int
	// JobTimeout is a per-job wall-clock budget covering the whole job;
	// an overrunning job is cancelled and fails. 0 means no limit. (The
	// per-cell budget is the spec's own Timeout field.)
	JobTimeout time.Duration
	// Telemetry receives the service-level floodd.* instruments
	// (docs/OBSERVABILITY.md has the catalog). Nil means a private
	// registry, still served via the handler's /debug/vars.
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives one line per lifecycle event
	// (submitted, started, finished, drained).
	Logf func(format string, args ...any)
	// Lease tunes the worker-pull protocol every job runs through
	// (docs/SERVICE.md, "Job execution"). The zero value is a local
	// daemon: default chunks, and the local executor starts at once.
	Lease LeaseOptions
}

// LeaseOptions tunes job execution: jobs run as leasable chunks that the
// daemon's local executor and any remote floodworker processes pull, and
// the local executor guarantees completion when no worker ever connects.
// All knobs shape wall-clock behavior only — the result CSV is
// byte-identical whoever ran the chunks, by the journal contract.
type LeaseOptions struct {
	// ChunkSize is how many cells one lease carries. <= 0 means 4.
	ChunkSize int
	// TTL is the lease lifetime between heartbeats. <= 0 means 15s.
	TTL time.Duration
	// MaxAttempts is the per-chunk poison threshold on lost leases
	// (silent expiries and partial reports). A reported cell failure
	// fails the job at once: the reporting executor already spent the
	// spec's retries. <= 0 means 5.
	MaxAttempts int
	// LocalGrace is the head start remote workers get before the daemon's
	// local executor begins pulling chunks itself. 0 means the local
	// executor competes immediately.
	LocalGrace time.Duration
}

// svcTel is the service's resolved instrument set.
type svcTel struct {
	submitted *telemetry.Counter
	rejected  *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	canceled  *telemetry.Counter
	requeued  *telemetry.Counter
	depth     *telemetry.Gauge
}

// Service is the simulation job scheduler behind cmd/floodd. Create one
// with New, expose it with Handler, stop it with Drain.
type Service struct {
	opts Options
	reg  *telemetry.Registry
	tel  svcTel

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	order    []string // submission order, for listing
	queue    []*Job   // FIFO of queued jobs
	live     int      // queued + running, for the admission bound
	active   *Job     // the job the scheduler is executing, if any
	draining bool
	nextID   int

	schedDone chan struct{}
}

// New opens (or creates) the job root at opts.Dir, re-queues any
// unfinished jobs a previous daemon left behind, and starts the
// scheduler.
func New(opts Options) (*Service, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("service: Options.Dir is required")
	}
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = 16
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	s := &Service{
		opts: opts,
		reg:  reg,
		tel: svcTel{
			submitted: reg.Counter("floodd.jobs.submitted"),
			rejected:  reg.Counter("floodd.jobs.rejected"),
			completed: reg.Counter("floodd.jobs.completed"),
			failed:    reg.Counter("floodd.jobs.failed"),
			canceled:  reg.Counter("floodd.jobs.canceled"),
			requeued:  reg.Counter("floodd.jobs.requeued"),
			depth:     reg.Gauge("floodd.queue.depth"),
		},
		jobs:      make(map[string]*Job),
		nextID:    1,
		schedDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.loadJobs(); err != nil {
		return nil, err
	}
	go s.scheduler()
	return s, nil
}

// jobMeta is the spec.json document: everything needed to resurrect a
// job that has not finished.
type jobMeta struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created"`
	Spec    Spec      `json:"spec"`
}

// loadJobs scans Dir for job directories left by a previous daemon:
// terminal jobs (status.json present) are loaded for serving, unfinished
// ones re-enter the queue — their journals make the re-run resume where
// it stopped.
func (s *Service) loadJobs() error {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		dir := filepath.Join(s.opts.Dir, name)
		var meta jobMeta
		if err := readJSON(filepath.Join(dir, "spec.json"), &meta); err != nil {
			continue // not a job directory; leave it alone
		}
		if meta.ID == "" {
			meta.ID = name
		}
		j := newJob(meta.ID, dir, meta.Spec, meta.Created)
		var st Status
		if err := readJSON(filepath.Join(dir, "status.json"), &st); err == nil && st.State.Terminal() {
			j.state = st.State
			j.errText = st.Error
			j.resumed = st.Resumed
			if st.Started != nil {
				j.started = *st.Started
			}
			if st.Finished != nil {
				j.finished = *st.Finished
			}
			if st.Progress != nil {
				j.progress = runner.Progress{
					Done: st.Progress.Done, Failed: st.Progress.Failed,
					Total: st.Progress.Total, Slots: st.Progress.Slots,
					Elapsed:     time.Duration(st.Progress.Elapsed),
					ETA:         time.Duration(st.Progress.ETA),
					SlotsPerSec: st.Progress.SlotsPerSec,
				}
				j.hasProg = true
			}
		} else {
			j.state = StateQueued
			s.queue = append(s.queue, j)
			s.live++
			s.tel.requeued.Inc()
			s.logf("job %s: requeued for resume", j.ID)
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if n, err := strconv.Atoi(meta.ID); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
	}
	s.tel.depth.Set(int64(len(s.queue)))
	return nil
}

// logf forwards to Options.Logf when set.
func (s *Service) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Registry returns the service-level telemetry registry (the floodd.*
// instruments).
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Submit applies Spec's documented defaults, validates the result by
// compiling it, admits it into the bounded queue, persists it to its own
// directory, and returns the queued Job. It fails with ErrQueueFull at
// the admission bound, ErrDraining during shutdown, or a validation
// error from Compile.
func (s *Service) Submit(spec Spec) (*Job, error) {
	grid, err := Compile(spec.withDefaults())
	if err != nil {
		s.tel.rejected.Inc()
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.tel.rejected.Inc()
		return nil, ErrDraining
	}
	if s.live >= s.opts.QueueLimit {
		s.mu.Unlock()
		s.tel.rejected.Inc()
		return nil, ErrQueueFull
	}
	id := fmt.Sprintf("%06d", s.nextID)
	s.nextID++
	dir := filepath.Join(s.opts.Dir, id)
	// Persist the (defaulted) spec so a daemon restart recompiles the
	// exact grid the client was promised.
	j := newJob(id, dir, grid.Spec, time.Now().UTC())
	if err := os.MkdirAll(dir, 0o755); err == nil {
		err = writeJSON(filepath.Join(dir, "spec.json"), jobMeta{ID: id, Created: j.created, Spec: grid.Spec})
	}
	if err != nil {
		s.mu.Unlock()
		s.tel.rejected.Inc()
		return nil, fmt.Errorf("service: %w", err)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, j)
	s.live++
	s.tel.submitted.Inc()
	s.tel.depth.Set(int64(len(s.queue)))
	s.cond.Signal()
	s.mu.Unlock()
	s.logf("job %s: submitted (%d cells)", id, len(grid.Cells))
	return j, nil
}

// Job returns the job with the given id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels the job with the given id: a queued job is finalized as
// canceled immediately, a running one is stopped (with a
// user-cancel cause, so it lands in StateCanceled, not the drain path).
// Cancelling a terminal job fails with ErrJobTerminal.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		s.mu.Unlock()
		return ErrJobTerminal
	case j.state == StateQueued:
		j.canceled = true
		j.mu.Unlock()
		inQueue := false
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				inQueue = true
				break
			}
		}
		s.tel.depth.Set(int64(len(s.queue)))
		s.mu.Unlock()
		if inQueue {
			s.settle(j, StateCanceled, errUserCancel.Error())
		}
		// Not in the queue: the scheduler popped it and is about to mark
		// it running. Settling here would race that handoff (a double
		// settle, and a terminal status.json under a job a concurrent
		// drain may yet requeue) — runJob observes j.canceled right after
		// the stopper lands and cancels itself instead.
		return nil
	default: // running
		j.canceled = true
		stop := j.stop
		j.mu.Unlock()
		s.mu.Unlock()
		if stop != nil {
			stop(errUserCancel)
		}
		return nil
	}
}

// Drain stops the service for shutdown: no new submissions are accepted,
// the active job (if any) is stopped with runner.ErrShutdown so its
// job stays resumable, queued jobs stay queued on disk, and the
// scheduler goroutine exits. It returns once the scheduler has settled
// or ctx expires. A second Drain is a no-op that still waits.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	act := s.active
	s.cond.Broadcast()
	s.mu.Unlock()
	if act != nil {
		act.stopWith(runner.ErrShutdown)
	}
	select {
	case <-s.schedDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// scheduler is the single job-execution loop: pop, run, repeat, exit on
// drain. Queued jobs left behind at drain are resumed by the next
// daemon's loadJobs.
func (s *Service) scheduler() {
	defer close(s.schedDone)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.draining {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.active = j
		s.tel.depth.Set(int64(len(s.queue)))
		s.mu.Unlock()
		s.runJob(j)
		s.mu.Lock()
		s.active = nil
		s.mu.Unlock()
	}
}

// writeResult renders the job's CSV atomically into the job directory
// (temp file + rename), so a crash can never leave a torn artifact.
func (s *Service) writeResult(j *Job, grid *Grid, rs runner.Results) error {
	f, err := os.CreateTemp(j.dir, "result-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if err := grid.WriteCSV(f, rs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), j.resultPath())
}

// resultPath is the job's CSV artifact location.
func (j *Job) resultPath() string { return filepath.Join(j.dir, "result.csv") }

// settle finalizes a job into a terminal state, persists status.json,
// updates the service counters, and releases its queue slot. The counters
// move before the state does, so a client that observes the terminal
// state also observes it counted.
func (s *Service) settle(j *Job, state State, errText string) {
	switch state {
	case StateDone:
		s.tel.completed.Inc()
	case StateFailed:
		s.tel.failed.Inc()
	case StateCanceled:
		s.tel.canceled.Inc()
	}
	j.finish(state, errText, time.Now().UTC())
	if err := writeJSON(filepath.Join(j.dir, "status.json"), j.Status()); err != nil {
		s.logf("job %s: persisting status: %v", j.ID, err)
	}
	s.mu.Lock()
	s.live--
	s.mu.Unlock()
	if errText == "" {
		s.logf("job %s: %s", j.ID, state)
	} else {
		s.logf("job %s: %s: %s", j.ID, state, errText)
	}
}

// readJSON unmarshals one JSON document from path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// writeJSON marshals v and writes it to path atomically (temp file +
// rename), so a crash mid-write never leaves a torn document.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".json-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
