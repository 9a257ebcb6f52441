package service_test

import (
	"strings"
	"testing"
	"time"

	"ldcflood/internal/service"
)

// TestReportedFailureSpendsSpecRetriesOnly pins the single retry policy:
// a cell that keeps overrunning the spec timeout is retried by the
// executor that runs it (the spec's retries, inside runner.Run), and its
// failure report then fails the job at once. The lease attempt budget —
// and the lease backoff between attempts — is never spent on it.
func TestReportedFailureSpendsSpecRetriesOnly(t *testing.T) {
	spec := service.Spec{
		Protocols: []string{"dbao"},
		Duties:    []float64{0.01},
		Seeds:     2,
		M:         400,
		Coverage:  0.99,
		TopoSeed:  1,
		Parallel:  1,
		Timeout:   service.Duration(time.Nanosecond),
		Retries:   1,
	}
	grid, err := service.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, t.TempDir(), service.Options{})
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, s, j.ID, 60*time.Second); st != service.StateFailed {
		t.Fatalf("job = %s, want failed", st)
	}

	cells := int64(len(grid.Cells))
	snap := j.Registry.Snapshot()
	if snap["runner.jobs.failed"] != cells || snap["runner.jobs.retries"] != cells {
		t.Fatalf("runner.jobs.failed = %d, runner.jobs.retries = %d, want %d each (one spec retry per failed cell)",
			snap["runner.jobs.failed"], snap["runner.jobs.retries"], cells)
	}
	// Both cells share one chunk: it is granted once and never requeued.
	if snap["lease.granted"] != 1 || snap["lease.requeues"] != 0 || snap["lease.poisoned"] != 1 {
		t.Fatalf("lease.granted = %d, lease.requeues = %d, lease.poisoned = %d, want 1/0/1",
			snap["lease.granted"], snap["lease.requeues"], snap["lease.poisoned"])
	}

	st := j.Status()
	if !strings.Contains(st.Error, grid.Cells[0].String()) || !strings.Contains(st.Error, "timeout") {
		t.Fatalf("error %q does not name the timed-out cell %q", st.Error, grid.Cells[0])
	}
	// Four lease attempts at the default 250ms base backoff would spend at
	// least 1.875s between grants; failing the job on the first report
	// takes a few milliseconds of simulation.
	if d := st.Finished.Sub(*st.Started); d >= time.Second {
		t.Fatalf("job took %v from start to failure, want well under the lease backoff", d)
	}
}
