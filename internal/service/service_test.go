package service_test

// The service test suite: the httptest end-to-end path (submit → stream
// events → fetch result), the kill-and-restart resume contract
// (byte-identical journal continuation), cancellation semantics, the
// bounded queue, and a concurrent-submission stress run for the race
// detector.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ldcflood/internal/runner"
	"ldcflood/internal/service"
)

// tinySpec is a grid that finishes in well under a second.
func tinySpec() service.Spec {
	return service.Spec{
		Protocols: []string{"opt"},
		Duties:    []float64{0.10},
		Seeds:     2,
		M:         5,
		Coverage:  0.99,
		TopoSeed:  1,
		Parallel:  2,
	}
}

// slowSpec is a grid that takes on the order of seconds (12 cells at
// ~140ms each, serial batch), so a drain or cancel lands mid-run rather
// than after completion.
func slowSpec() service.Spec {
	return service.Spec{
		Protocols: []string{"opt", "dbao"},
		Duties:    []float64{0.01},
		Seeds:     6,
		M:         400,
		Coverage:  0.99,
		TopoSeed:  1,
		Parallel:  1,
	}
}

// newService builds a Service over a fresh (or given) directory and
// registers its drain with test cleanup.
func newService(t testing.TB, dir string, opts service.Options) *service.Service {
	t.Helper()
	opts.Dir = dir
	s, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort cleanup
	})
	return s
}

// waitState polls until the job reaches a terminal state or the deadline
// passes.
func waitState(t *testing.T, s *service.Service, id string, timeout time.Duration) service.State {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st := j.State(); st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, j.State(), timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// referenceCSV runs the spec synchronously (no service, no journal) and
// returns the CSV bytes the service must reproduce.
func referenceCSV(t *testing.T, spec service.Spec) []byte {
	t.Helper()
	grid, err := service.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := runner.Run(context.Background(), grid.Jobs, grid.Options())
	var buf bytes.Buffer
	if err := grid.WriteCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postSpec(t *testing.T, url string, spec service.Spec) (service.Status, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Status
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func TestServiceEndToEnd(t *testing.T) {
	s := newService(t, t.TempDir(), service.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Submit.
	st, resp := postSpec(t, ts.URL, tinySpec())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	if st.State != service.StateQueued && st.State != service.StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Stream events until the terminal frame.
	evResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var sawProgress, sawDone bool
	var final service.Status
	sc := bufio.NewScanner(evResp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				sawProgress = true
			case "done":
				sawDone = true
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("bad done payload: %v", err)
				}
			}
		}
		if sawDone {
			break
		}
	}
	if !sawDone {
		t.Fatalf("stream ended without done event (progress seen: %v, scan err %v)", sawProgress, sc.Err())
	}
	if final.State != service.StateDone {
		t.Fatalf("terminal state = %s (%s)", final.State, final.Error)
	}
	if final.Progress == nil || final.Progress.Done != 2 || final.Progress.Total != 2 {
		t.Fatalf("final progress = %+v", final.Progress)
	}

	// Fetch the artifact and compare with the synchronous reference run.
	res, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("result Content-Type = %q", ct)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	if want := referenceCSV(t, tinySpec()); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("service CSV differs from direct run:\n%s\nvs\n%s", got.Bytes(), want)
	}

	// The JSON projection carries the same rows.
	jres, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jres.Body.Close()
	var rows struct {
		Rows []map[string]string `json:"rows"`
	}
	if err := json.NewDecoder(jres.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(bytes.NewReader(got.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != len(records)-1 {
		t.Fatalf("json rows = %d, csv rows = %d", len(rows.Rows), len(records)-1)
	}
	if rows.Rows[0]["protocol"] != records[1][0] {
		t.Fatalf("json row mismatch: %v vs %v", rows.Rows[0], records[1])
	}

	// Telemetry: server-level floodd.* plus the job's mounted registry.
	vres, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vres.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(vres.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if v, ok := vars["floodd.jobs.submitted"].(float64); !ok || v != 1 {
		t.Fatalf("floodd.jobs.submitted = %v", vars["floodd.jobs.submitted"])
	}
	if v, ok := vars["job."+st.ID+".runner.jobs.done"].(float64); !ok || v != 2 {
		t.Fatalf("per-job runner.jobs.done = %v", vars["job."+st.ID+".runner.jobs.done"])
	}
	if _, ok := vars["job."+st.ID+".sim.tx.attempts"]; !ok {
		t.Fatal("per-job sim.* counters not mounted under /debug/vars")
	}

	// Listing and health.
	lres, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lres.Body.Close()
	var list struct {
		Jobs []service.Status `json:"jobs"`
	}
	if err := json.NewDecoder(lres.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list = %+v", list.Jobs)
	}
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hres.StatusCode)
	}
}

// TestServiceDrainResumeByteIdentical is the daemon-kill contract: drain
// a service mid-job, bring a new one up over the same directory, and the
// finished artifact must be byte-identical to an uninterrupted run.
func TestServiceDrainResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second grid; skipped in -short")
	}
	want := referenceCSV(t, slowSpec())
	dir := t.TempDir()

	s1 := newService(t, dir, service.Options{})
	j, err := s1.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first journaled cell so the resume has something to
	// replay, then drain mid-run.
	ch, _ := j.Subscribe()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("no progress within 30s")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	interrupted := j.State() == service.StateQueued
	if !interrupted {
		t.Logf("job finished before the drain landed; resume path not exercised this run")
	}

	// Restart over the same directory: the unfinished job is re-queued
	// and its journal replays the cells already done.
	s2 := newService(t, dir, service.Options{})
	j2, ok := s2.Job(j.ID)
	if !ok {
		t.Fatalf("job %s not resurrected on restart", j.ID)
	}
	if st := waitState(t, s2, j.ID, 120*time.Second); st != service.StateDone {
		t.Fatalf("resumed job state = %s (%s)", st, j2.Status().Error)
	}
	got, err := os.ReadFile(filepath.Join(dir, j.ID, "result.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if interrupted {
		if st := j2.Status(); st.Resumed == 0 {
			t.Fatalf("resumed job reports Resumed = 0, want > 0 (status %+v)", st)
		}
	}
}

// TestServiceDrainKeepsFinishedCells: a drain that lands mid-chunk still
// journals the chunk's finished cells, so the resumed job does not
// simulate them again. One puller runs the whole grid as one chunk, and
// the drain waits until the runner has finished some of its cells.
func TestServiceDrainKeepsFinishedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second grid; skipped in -short")
	}
	spec := slowSpec()
	want := referenceCSV(t, spec)
	dir := t.TempDir()
	opts := service.Options{Lease: service.LeaseOptions{ChunkSize: 12}}

	s1 := newService(t, dir, opts)
	j, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	finished := j.Registry.Counter("runner.jobs.done")
	for deadline := time.Now().Add(60 * time.Second); finished.Value() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the runner finished fewer than 2 cells within 60s")
		}
		time.Sleep(time.Millisecond)
	}
	atDrain := int(finished.Value())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := j.State(); st != service.StateQueued {
		t.Fatalf("job = %s after a mid-chunk drain, want queued", st)
	}

	s2 := newService(t, dir, opts)
	j2, ok := s2.Job(j.ID)
	if !ok {
		t.Fatalf("job %s not resurrected on restart", j.ID)
	}
	if st := waitState(t, s2, j.ID, 120*time.Second); st != service.StateDone {
		t.Fatalf("resumed job state = %s (%s)", st, j2.Status().Error)
	}
	if got := j2.Status().Resumed; got < atDrain {
		t.Fatalf("resumed with %d journaled cells, want at least the %d finished before the drain", got, atDrain)
	}
	got, err := os.ReadFile(filepath.Join(dir, j.ID, "result.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestSmallJobRunsCellsConcurrently: a job of fewer cells than a chunk
// still keeps its batch parallelism in flight. Each cell blocks in the
// workers' start hook until both have started, so a chunk simulated one
// cell at a time never starts its second cell and fails the deadline.
func TestSmallJobRunsCellsConcurrently(t *testing.T) {
	spec := service.Spec{
		Protocols: []string{"dbao"},
		Duties:    []float64{0.01},
		Seeds:     2,
		M:         5,
		Coverage:  0.99,
		TopoSeed:  1,
		Parallel:  2,
	}
	s := newService(t, t.TempDir(), service.Options{})
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	service.SetCellStartHook(s, func() {
		started <- struct{}{}
		<-release
	})
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-deadline:
			close(release)
			t.Fatalf("%d of 2 cells started: the cells ran one after the other", i)
		}
	}
	close(release)
	if st := waitState(t, s, j.ID, 60*time.Second); st != service.StateDone {
		t.Fatalf("job = %s, want done", st)
	}
}

func TestServiceCancel(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, dir, service.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A running job and a queued one behind it.
	running, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job over HTTP: immediate terminal state.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued = %d", resp.StatusCode)
	}
	if st := waitState(t, s, queued.ID, 10*time.Second); st != service.StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", st)
	}

	// Cancel the running job: the batch is interrupted with the
	// user-cancel cause and lands in canceled, not failed.
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, s, running.ID, 30*time.Second); st != service.StateCanceled {
		t.Fatalf("running job state = %s, want canceled", st)
	}

	// Cancelling a terminal job is a 409.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE terminal = %d, want 409", resp.StatusCode)
	}

	// A canceled job stays canceled across restart (terminal status
	// persisted; nothing requeued).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s2 := newService(t, dir, service.Options{})
	for _, id := range []string{running.ID, queued.ID} {
		j2, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if st := j2.State(); st != service.StateCanceled {
			t.Fatalf("job %s = %s after restart, want canceled", id, st)
		}
	}
}

func TestServiceQueueLimit(t *testing.T) {
	s := newService(t, t.TempDir(), service.Options{QueueLimit: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Submit(slowSpec()); err != nil {
		t.Fatal(err)
	}
	_, resp := postSpec(t, ts.URL, tinySpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit POST = %d, want 429", resp.StatusCode)
	}
}

func TestServiceRejectsBadSpecs(t *testing.T) {
	s := newService(t, t.TempDir(), service.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"protocols":["bogus"]}`,
		`{"duties":[1.5]}`,
		`{"seeds":-1}`,
		`{"m":-1}`,
		`{"unknown_field":1}`,
		`{"compact":true}`, // retired field: only persisted specs may carry it
		`{"timeout":"not a duration"}`,
		`{"faults":{"crashes":[{"node":99999,"at":1}]}}`,
		`not json`,
		`{"protocols":["opt"],"duties":[0.1],"seeds":1,"m":2} {"protocols":["bogus"]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %s accepted with status %d", body, resp.StatusCode)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs admitted from invalid specs", n)
	}
}

// TestServiceConcurrentSubmits hammers the public surface from many
// goroutines; run under -race it is the data-race certification for the
// queue, the job state machines, and the SSE fan-out.
func TestServiceConcurrentSubmits(t *testing.T) {
	s := newService(t, t.TempDir(), service.Options{QueueLimit: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := service.Spec{
		Protocols: []string{"opt"},
		Duties:    []float64{0.20},
		Seeds:     1,
		M:         2,
		Coverage:  0.99,
		TopoSeed:  1,
	}
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := postSpec(t, ts.URL, spec)
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
			// Poll status and the list concurrently with the scheduler.
			for k := 0; k < 3; k++ {
				r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
				if err == nil {
					r.Body.Close()
				}
				r, err = http.Get(ts.URL + "/v1/jobs")
				if err == nil {
					r.Body.Close()
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, id := range ids {
		if st := waitState(t, s, id, 60*time.Second); st != service.StateDone {
			t.Fatalf("job %s = %s", id, st)
		}
	}
	// All eight ran to done; the counters agree.
	snap := service.Registry(s).Snapshot()
	if snap["floodd.jobs.submitted"] != n || snap["floodd.jobs.completed"] != n {
		t.Fatalf("counters: submitted=%d completed=%d, want %d/%d",
			snap["floodd.jobs.submitted"], snap["floodd.jobs.completed"], n, n)
	}
}

// TestServiceShutdownRaces drives the shutdown contention window under
// the race detector: a SIGTERM drain, a client cancel of the running
// job, and a fresh submission all landing on the same tick, repeatedly.
// Whatever interleaving wins, the service must settle (Drain returns),
// every job must end in a coherent state (terminal, or queued-for-resume
// with no terminal status on disk), and nothing may deadlock.
func TestServiceShutdownRaces(t *testing.T) {
	iters := 10
	if testing.Short() {
		iters = 3
	}
	for i := 0; i < iters; i++ {
		dir := t.TempDir()
		s := newService(t, dir, service.Options{QueueLimit: 8})
		j, err := s.Submit(slowSpec())
		if err != nil {
			t.Fatal(err)
		}
		// Let the scheduler reach the running window on some iterations and
		// race the submit-to-run handoff on others.
		if i%2 == 0 {
			deadline := time.Now().Add(10 * time.Second)
			for j.State() == service.StateQueued && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(3)
		errs := make(chan error, 1)
		go func() {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				select {
				case errs <- fmt.Errorf("drain: %w", err):
				default:
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			s.Cancel(j.ID) //nolint:errcheck // ErrJobTerminal is a legal race outcome
		}()
		go func() {
			defer wg.Done()
			<-start
			// Submission racing the drain flag: either admitted or rejected
			// with ErrDraining; anything else is a bug.
			if _, err := s.Submit(tinySpec()); err != nil && err != service.ErrDraining {
				select {
				case errs <- fmt.Errorf("submit: %w", err):
				default:
				}
			}
		}()
		close(start)
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}

		// The raced job must be coherent: terminal (cancel won) or queued
		// for resume (drain won) — and if terminal, status.json must exist;
		// if queued, it must not.
		st := j.State()
		_, statErr := os.Stat(filepath.Join(dir, j.ID, "status.json"))
		switch {
		case st.Terminal() && statErr != nil:
			t.Fatalf("iter %d: job %s terminal (%s) but status.json missing: %v", i, j.ID, st, statErr)
		case st == service.StateQueued && statErr == nil:
			t.Fatalf("iter %d: job %s queued for resume but terminal status persisted", i, j.ID)
		case !st.Terminal() && st != service.StateQueued:
			t.Fatalf("iter %d: job %s settled in %s", i, j.ID, st)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{`"1.5s"`, 1500 * time.Millisecond},
		{`"200ms"`, 200 * time.Millisecond},
		{fmt.Sprint(int64(2 * time.Second)), 2 * time.Second},
	} {
		var d service.Duration
		if err := json.Unmarshal([]byte(tc.in), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", tc.in, err)
		}
		if time.Duration(d) != tc.want {
			t.Fatalf("unmarshal %s = %v, want %v", tc.in, time.Duration(d), tc.want)
		}
	}
	out, err := json.Marshal(service.Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `"1m30s"` {
		t.Fatalf("marshal = %s", out)
	}
}

// TestServiceRestartOldJournalKey restarts a daemon over an unfinished
// job whose journal an older release wrote under the v1 key format
// ("sweep|...|compact=false|sharded=false|faults=..."). A journal resumes
// only under the grid's current key, so the job settles failed with the
// runner's key-mismatch error naming both keys, and the journal is left
// byte-identical.
func TestServiceRestartOldJournalKey(t *testing.T) {
	dir := t.TempDir()
	s1 := newService(t, dir, service.Options{})
	j, err := s1.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, s1, j.ID, 60*time.Second); st != service.StateDone {
		t.Fatalf("job = %s", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	grid, err := service.Compile(j.Status().Spec)
	if err != nil {
		t.Fatal(err)
	}

	// Turn the finished job into an unfinished one an older release left
	// behind: a v1 header over one journaled cell, no terminal status.
	jobDir := filepath.Join(dir, j.ID)
	path := filepath.Join(jobDir, "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	key := grid.JournalKey()
	rest, ok := strings.CutPrefix(key, "sweep/v3|")
	i := strings.LastIndex(rest, "|faults=")
	if !ok || i < 0 {
		t.Fatalf("unexpected journal key %q", key)
	}
	old := "sweep|" + rest[:i] + "|compact=false|sharded=false" + rest[i:]
	lines := bytes.SplitAfter(data, []byte("\n"))
	data = fmt.Appendf(nil, "{\"journal\":\"ldcflood-runner\",\"v\":1,\"key\":%q}\n%s", old, lines[1])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"status.json", "result.csv"} {
		if err := os.Remove(filepath.Join(jobDir, f)); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newService(t, dir, service.Options{})
	j2, ok := s2.Job(j.ID)
	if !ok {
		t.Fatalf("job %s not resurrected", j.ID)
	}
	wantErr := fmt.Sprintf("belongs to a different batch (key %q, want %q)", old, key)
	if st := waitState(t, s2, j.ID, 60*time.Second); st != service.StateFailed || !strings.Contains(j2.Status().Error, wantErr) {
		t.Fatalf("v1 journal: job = %s (%q), want failed with %q", st, j2.Status().Error, wantErr)
	}
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("the refused journal changed:\n%s\nvs\n%s", got, data)
	}
}

// TestServiceRestartUnknownProtocol restarts a daemon over two
// unfinished jobs: the first was persisted by a release that still had
// the Flash protocol and names "flash", the second is ordinary. The first
// must settle failed with flood's unknown-protocol error, and stay failed
// across a further restart; the second, and a job submitted afterwards,
// must still run to the reference CSV.
func TestServiceRestartUnknownProtocol(t *testing.T) {
	want := referenceCSV(t, tinySpec())
	dir := t.TempDir()
	s1 := newService(t, dir, service.Options{})
	var ids []string
	for range 2 {
		j, err := s1.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		if st := waitState(t, s1, j.ID, 60*time.Second); st != service.StateDone {
			t.Fatalf("job = %s", st)
		}
		ids = append(ids, j.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		for _, f := range []string{"status.json", "result.csv"} {
			if err := os.Remove(filepath.Join(dir, id, f)); err != nil {
				t.Fatal(err)
			}
		}
	}
	flash := ids[0]
	editSpec(t, filepath.Join(dir, flash, "spec.json"), func(spec map[string]any) { spec["protocols"] = []string{"flash"} })

	s2 := newService(t, dir, service.Options{})
	j, ok := s2.Job(flash)
	if !ok {
		t.Fatalf("job %s not resurrected", flash)
	}
	if st := waitState(t, s2, flash, 60*time.Second); st != service.StateFailed || !strings.Contains(j.Status().Error, `flood: unknown protocol "flash"`) {
		t.Fatalf("flash job = %s (%q), want failed with the unknown-protocol error", st, j.Status().Error)
	}
	fresh, err := s2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{ids[1], fresh.ID} {
		if st := waitState(t, s2, id, 60*time.Second); st != service.StateDone {
			t.Fatalf("job %s behind the flash job = %s", id, st)
		}
		got, err := os.ReadFile(filepath.Join(dir, id, "result.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %s CSV differs from the reference:\n%s\nvs\n%s", id, got, want)
		}
	}
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s3 := newService(t, dir, service.Options{})
	j3, ok := s3.Job(flash)
	if !ok {
		t.Fatalf("flash job %s not loaded after a further restart", flash)
	}
	if st := j3.State(); st != service.StateFailed {
		t.Fatalf("flash job after a further restart = %s, want failed", st)
	}
}

// editSpec rewrites the spec inside a persisted spec.json document, as an
// older release would have written it.
func editSpec(t *testing.T, path string, edit func(spec map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	edit(meta["spec"].(map[string]any))
	if data, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
