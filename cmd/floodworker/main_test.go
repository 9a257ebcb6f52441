package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ldcflood/internal/runner"
	"ldcflood/internal/service"
)

// TestWorkerMatchesDirectRun runs a worker against a live daemon whose
// own executor waits an hour, so the worker simulates every chunk — and
// the job's CSV must be byte-identical to a direct runner.Run of the grid.
func TestWorkerMatchesDirectRun(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.New(service.Options{
		Dir:   dir,
		Lease: service.LeaseOptions{ChunkSize: 2, LocalGrace: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx) //nolint:errcheck // best-effort cleanup
	}()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	j, err := svc.Submit(service.Spec{
		Protocols: []string{"opt", "dbao"},
		Duties:    []float64{0.05},
		Seeds:     3,
		M:         5,
		Coverage:  0.99,
		TopoSeed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := service.Compile(j.Status().Spec)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := runner.Run(context.Background(), grid.Jobs, grid.Options())
	var want bytes.Buffer
	if err := grid.WriteCSV(&want, rs); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	w := &worker{
		base: ts.URL, name: "test-worker", parallel: 2, poll: 10 * time.Millisecond,
		client: &http.Client{Timeout: 30 * time.Second},
		grids:  make(map[string]*service.Grid),
		logf:   t.Logf,
	}
	stopped := make(chan error, 1)
	go func() { stopped <- w.run(ctx) }()
	events, _ := j.Subscribe()
	timeout := time.After(60 * time.Second)
wait:
	for {
		select {
		case _, ok := <-events:
			if !ok {
				break wait
			}
		case <-timeout:
			t.Fatalf("job still %s after 60s", j.State())
		}
	}
	cancel()
	<-stopped

	if st := j.Status(); st.State != service.StateDone {
		t.Fatalf("job = %s (%s)", st.State, st.Error)
	}
	got, err := os.ReadFile(filepath.Join(dir, j.ID, "result.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("worker-run CSV differs from direct run:\n%s\nvs\n%s", got, want.Bytes())
	}
	snap := j.Registry.Snapshot()
	if chunks := int64(len(grid.Cells)+1) / 2; snap["lease.granted"] != chunks || snap["lease.cells.accepted"] != int64(len(grid.Cells)) {
		t.Fatalf("lease.granted = %d, lease.cells.accepted = %d, want %d chunks, %d cells",
			snap["lease.granted"], snap["lease.cells.accepted"], chunks, len(grid.Cells))
	}
	if snap["runner.jobs.done"] != 0 {
		t.Fatalf("runner.jobs.done = %d: the daemon's own executor ran cells", snap["runner.jobs.done"])
	}
}
