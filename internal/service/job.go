package service

// The per-job state machine. A Job is created by Submit (or resurrected
// from disk by New), walks queued → running → {done, failed, canceled},
// and fans progress snapshots out to any number of event subscribers
// (the SSE endpoint). An interrupted job — daemon drained or killed
// mid-run — is not a state: it simply re-enters the queue on the next
// startup, and its journal makes the re-run byte-identical.

import (
	"sync"
	"time"

	"ldcflood/internal/runner"
	"ldcflood/internal/telemetry"
)

// State is a job lifecycle state.
type State string

// The job lifecycle: Queued and Running are live; Done, Failed and
// Canceled are terminal and persisted to the job's status.json.
const (
	// StateQueued: accepted, waiting for the scheduler (also the state a
	// mid-run-interrupted job returns to on daemon restart).
	StateQueued State = "queued"
	// StateRunning: the scheduler is executing the job's batch.
	StateRunning State = "running"
	// StateDone: every cell succeeded; the result artifact exists.
	StateDone State = "done"
	// StateFailed: a cell failed terminally (engine error, exhausted
	// retries, per-job timeout); Status.Error names the first failure.
	StateFailed State = "failed"
	// StateCanceled: cancelled by the user via DELETE before finishing.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final (no further transitions).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ProgressView is the JSON shape of a runner.Progress snapshot as served
// by the status and events endpoints.
type ProgressView struct {
	// Done is the number of finished cells, failures included.
	Done int `json:"done"`
	// Failed is the number of cells that ended in a job error.
	Failed int `json:"failed"`
	// Total is the number of cells in the grid.
	Total int `json:"total"`
	// Slots is the simulated slots completed so far.
	Slots int64 `json:"slots"`
	// Elapsed is the wall-clock time since the batch started.
	Elapsed Duration `json:"elapsed"`
	// ETA is the projected time to completion (0 until the first cell
	// lands and after the last).
	ETA Duration `json:"eta"`
	// SlotsPerSec is the simulated-slot throughput so far.
	SlotsPerSec float64 `json:"slots_per_sec"`
}

// progressView converts a runner snapshot to its wire shape.
func progressView(p runner.Progress) ProgressView {
	return ProgressView{
		Done: p.Done, Failed: p.Failed, Total: p.Total, Slots: p.Slots,
		Elapsed: Duration(p.Elapsed), ETA: Duration(p.ETA),
		SlotsPerSec: p.SlotsPerSec,
	}
}

// Status is the JSON document describing one job, served by
// GET /v1/jobs/{id} and as the payload of the terminal SSE event.
type Status struct {
	// ID is the job's server-assigned identifier.
	ID string `json:"id"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Cells is the grid size (protocols × duties × seeds).
	Cells int `json:"cells"`
	// Resumed counts cells served from the job's journal instead of
	// simulated — non-zero after a daemon restart mid-job.
	Resumed int `json:"resumed,omitempty"`
	// Error names the first failure for StateFailed (and the
	// cancellation reason for StateCanceled).
	Error string `json:"error,omitempty"`
	// Created, Started, Finished are lifecycle timestamps (RFC 3339);
	// Started/Finished are zero until reached.
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Progress is the latest batch snapshot; nil before the first cell.
	Progress *ProgressView `json:"progress,omitempty"`
	// Spec is the job's (defaulted) sweep specification.
	Spec Spec `json:"spec"`
}

// Event is one message on a job's event stream. Exactly the SSE wire
// shape: Type is the "event:" line, the marshaled Data the "data:" line.
type Event struct {
	// Type is "progress" for batch snapshots, "done" for the single
	// terminal event (whatever the terminal state is).
	Type string
	// Data is the payload: a ProgressView or, for "done", the final
	// Status.
	Data any
}

// Job is one submitted sweep. All fields are guarded by the owning
// Service's per-job locking discipline: mu for mutable state, the rest
// immutable after construction.
type Job struct {
	// ID is the server-assigned identifier (zero-padded sequence number).
	ID string
	// Registry is the job's private telemetry registry: the runner's
	// runner.* instruments and the engine's sim.*/fault.* counters for
	// this job only. Mounted under /debug/vars as "job.<id>.*".
	Registry *telemetry.Registry

	spec Spec
	dir  string // job state directory: spec.json, journal.jsonl, result.csv, status.json

	mu       sync.Mutex
	state    State
	errText  string
	created  time.Time
	started  time.Time
	finished time.Time
	progress runner.Progress
	hasProg  bool
	resumed  int
	stop     func(error) // cancels the running execution with a cause; non-nil while running
	run      *jobRun     // the live lease run, while executing
	canceled bool        // user asked for cancellation (DELETE)
	subs     map[chan Event]struct{}
}

// running returns the job's live lease run, or nil when the job is not
// executing.
func (j *Job) running() *jobRun {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.run
}

// stopWith invokes the job's stopper (if running) with the given cause.
func (j *Job) stopWith(cause error) {
	j.mu.Lock()
	stop := j.stop
	j.mu.Unlock()
	if stop != nil {
		stop(cause)
	}
}

// newJob builds a queued job.
func newJob(id, dir string, spec Spec, created time.Time) *Job {
	return &Job{
		ID:       id,
		Registry: telemetry.New(),
		spec:     spec,
		dir:      dir,
		state:    StateQueued,
		created:  created,
		subs:     make(map[chan Event]struct{}),
	}
}

// Status returns the job's current wire-shape snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked builds the Status document; callers hold j.mu.
func (j *Job) statusLocked() Status {
	st := Status{
		ID:      j.ID,
		State:   j.state,
		Resumed: j.resumed,
		Error:   j.errText,
		Created: j.created,
		Spec:    j.spec,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.hasProg {
		pv := progressView(j.progress)
		st.Progress = &pv
		st.Cells = j.progress.Total
	}
	return st
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Subscribe registers an event listener and returns its channel plus the
// job's current status. The channel is closed when the job reaches a
// terminal state (after the "done" event) or when unsubscribed. Slow
// subscribers lose intermediate progress events rather than blocking the
// batch — the terminal event is never dropped because close follows it
// through the same buffered channel only after a successful send or a
// drain.
func (j *Job) Subscribe() (<-chan Event, Status) {
	ch := make(chan Event, 16)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		// Late subscriber: replay the terminal event immediately.
		ch <- Event{Type: "done", Data: j.statusLocked()}
		close(ch)
		return ch, j.statusLocked()
	}
	j.subs[ch] = struct{}{}
	return ch, j.statusLocked()
}

// Unsubscribe removes a listener registered with Subscribe; its channel
// is closed if the job has not already closed it.
func (j *Job) Unsubscribe(ch <-chan Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for sub := range j.subs {
		if sub == ch {
			delete(j.subs, sub)
			close(sub)
			return
		}
	}
}

// publishLocked fans an event to all subscribers without blocking: a full
// subscriber buffer drops the oldest pending event first, so the newest
// snapshot always lands. Callers hold j.mu.
func (j *Job) publishLocked(ev Event) {
	for sub := range j.subs {
		for {
			select {
			case sub <- ev:
			default:
				select {
				case <-sub: // evict the oldest queued event
				default:
				}
				continue
			}
			break
		}
	}
}

// observe records a batch progress snapshot and fans it out.
func (j *Job) observe(p runner.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = p
	j.hasProg = true
	j.publishLocked(Event{Type: "progress", Data: progressView(p)})
}

// finish moves the job to a terminal state, emits the "done" event, and
// closes every subscriber channel.
func (j *Job) finish(state State, errText string, at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.errText = errText
	j.finished = at
	j.stop = nil
	j.run = nil
	j.publishLocked(Event{Type: "done", Data: j.statusLocked()})
	for sub := range j.subs {
		delete(j.subs, sub)
		close(sub)
	}
}
