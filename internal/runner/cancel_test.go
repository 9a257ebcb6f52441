package runner_test

// Tests for the KindShutdown cancellation-cause classification: a batch
// whose context is cancelled with ErrShutdown reports its interrupted jobs
// as drained, not cancelled.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ldcflood/internal/runner"
	"ldcflood/internal/sim"
)

// TestBatchCancelShutdownKind: cancelling with ErrShutdown classifies
// interrupted jobs as KindShutdown, distinguishable from a user cancel
// without string matching, while plain cancellation stays KindCanceled.
func TestBatchCancelShutdownKind(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cause    error
		wantKind runner.Kind
	}{
		{"shutdown", runner.ErrShutdown, runner.KindShutdown},
		{"wrapped shutdown", fmt.Errorf("draining: %w", runner.ErrShutdown), runner.KindShutdown},
		{"user", errors.New("user clicked cancel"), runner.KindCanceled},
		{"nil", nil, runner.KindCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One stuck job keeps the batch alive until Cancel; trailing
			// jobs never start and fail on the pre-start check, covering
			// both classification sites.
			jobs := []sim.Config{stuckJob(1), quickJob(2), quickJob(3)}
			ctx, cancel := context.WithCancelCause(context.Background())
			time.AfterFunc(10*time.Millisecond, func() { cancel(tc.cause) })
			rs, _ := runner.Run(ctx, jobs, runner.Options{Workers: 1})

			var je *runner.JobError
			if !errors.As(rs[0].Err, &je) {
				t.Fatalf("job 0 error = %v, want *JobError", rs[0].Err)
			}
			if je.Kind != tc.wantKind {
				t.Fatalf("running job Kind = %v, want %v", je.Kind, tc.wantKind)
			}
			if !errors.As(rs[2].Err, &je) {
				t.Fatalf("job 2 error = %v, want *JobError", rs[2].Err)
			}
			if je.Kind != tc.wantKind {
				t.Fatalf("unstarted job Kind = %v, want %v", je.Kind, tc.wantKind)
			}
			// Every flavor of cancellation still satisfies ErrCanceled.
			if !errors.Is(rs[0].Err, runner.ErrCanceled) {
				t.Fatalf("cancelled job does not unwrap to ErrCanceled: %v", rs[0].Err)
			}
			if tc.wantKind == runner.KindShutdown && !errors.Is(rs[0].Err, runner.ErrShutdown) {
				t.Fatalf("shutdown job does not unwrap to ErrShutdown: %v", rs[0].Err)
			}
			if tc.cause == nil && !errors.Is(rs[0].Err, context.Canceled) {
				t.Fatalf("cause-less cancel lost context.Canceled: %v", rs[0].Err)
			}
		})
	}
}

func TestShutdownKindNotRetryable(t *testing.T) {
	if runner.KindShutdown.Retryable() {
		t.Fatal("KindShutdown must not be retryable")
	}
	if runner.KindShutdown.String() != "shutdown" {
		t.Fatalf("KindShutdown.String() = %q", runner.KindShutdown.String())
	}
}
