package runner

import (
	"errors"
	"fmt"
)

// Kind classifies why a job failed.
type Kind int

const (
	// KindSim: the simulation engine returned an ordinary error (invalid
	// config, a protocol contract violation, or a caller-supplied
	// Interrupt hook firing).
	KindSim Kind = iota
	// KindPanic: the job panicked; JobError.Stack holds the trace.
	KindPanic
	// KindTimeout: the job exceeded Options.Timeout.
	KindTimeout
	// KindCanceled: the batch context was cancelled before or while the
	// job ran.
	KindCanceled
	// KindShutdown: the batch context was cancelled with ErrShutdown as
	// its cause (context.WithCancelCause) — the process is draining, not
	// the user abandoning the job. Callers that checkpoint work (a
	// journal-backed job queue) use this to requeue the job for resume
	// instead of marking it terminally cancelled.
	KindShutdown
)

// Retryable reports whether failures of this kind may succeed on a
// re-run and are therefore worth retrying (Options.Retries):
//
//   - KindTimeout: yes — wall clocks depend on machine load, so the same
//     job can finish in time on a quieter machine.
//   - KindPanic: yes — panics can stem from transient process state; a
//     deterministic panic simply fails again and exhausts its budget.
//   - KindSim: no — engine errors are validation or protocol-contract
//     failures, deterministic in the Config.
//   - KindCanceled, KindShutdown: no — the batch is being torn down.
func (k Kind) Retryable() bool {
	return k == KindTimeout || k == KindPanic
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSim:
		return "sim error"
	case KindPanic:
		return "panic"
	case KindTimeout:
		return "timeout"
	case KindCanceled:
		return "canceled"
	case KindShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Sentinel errors matched by errors.Is against a *JobError, one per
// abnormal Kind.
var (
	// ErrPanic matches KindPanic: the job's goroutine panicked.
	ErrPanic = errors.New("runner: job panicked")
	// ErrTimeout matches KindTimeout: the job overran its per-run
	// wall-clock budget.
	ErrTimeout = errors.New("runner: job exceeded wall-clock timeout")
	// ErrCanceled matches KindCanceled: the batch context was canceled
	// for a reason other than a drain.
	ErrCanceled = errors.New("runner: batch canceled")
	// ErrShutdown doubles as the cancellation *cause* callers pass to
	// signal a drain: cancel the batch context via context.WithCancelCause
	// with ErrShutdown — or an error wrapping it — and every interrupted
	// job fails with KindShutdown instead of KindCanceled, so "the server
	// is restarting" is distinguishable from "the user abandoned this
	// job" without string matching.
	ErrShutdown = errors.New("runner: batch shut down")
)

// JobError reports one failed job. It wraps both the sentinel for its Kind
// and the underlying cause, so errors.Is works against either (e.g.
// errors.Is(err, runner.ErrTimeout), errors.Is(err, context.Canceled)).
//
// Unwrap contract: the cause chain carries exactly the failure's own
// classification. A runner-imposed abort (timeout or cancellation) does
// NOT unwrap to sim.ErrInterrupted — that sentinel is reserved for
// caller-supplied sim.Config.Interrupt hooks, whose firing is an ordinary
// engine outcome of kind KindSim. Use Kind (or the per-kind
// sentinels) to classify, and Kind.Retryable to decide whether a retry can
// help.
type JobError struct {
	// Index is the job's position in the input slice.
	Index int
	// Kind classifies the failure.
	Kind Kind
	// Err is the underlying cause: the engine error, the recovered panic
	// value, or the context error.
	Err error
	// Stack is the goroutine stack captured at recovery; KindPanic only.
	Stack []byte
}

// Error implements error.
func (e *JobError) Error() string {
	return fmt.Sprintf("runner: job %d: %s: %v", e.Index, e.Kind, e.Err)
}

// Unwrap exposes the Kind sentinel and the underlying cause.
func (e *JobError) Unwrap() []error {
	var out []error
	switch e.Kind {
	case KindPanic:
		out = append(out, ErrPanic)
	case KindTimeout:
		out = append(out, ErrTimeout)
	case KindCanceled:
		out = append(out, ErrCanceled)
	case KindShutdown:
		// A shutdown is still a cancellation: errors.Is(err, ErrCanceled)
		// keeps working for callers that don't care why the batch stopped.
		out = append(out, ErrShutdown, ErrCanceled)
	}
	if e.Err != nil {
		out = append(out, e.Err)
	}
	return out
}
