package service_test

// Distributed-mode tests: the lease protocol end to end over real HTTP —
// local-executor fallback, zombie completions provably dropped, daemon
// restart mid-sweep with stale-lease rejection, and chunk poisoning.
// Every success path asserts the final CSV is byte-identical to a plain
// synchronous run: the whole point of the protocol is that worker
// failures are invisible in the artifact.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ldcflood/internal/runner"
	"ldcflood/internal/service"
)

// distSpec is the grid distributed tests sweep: 8 fast cells.
func distSpec() service.Spec {
	return service.Spec{
		Protocols: []string{"opt"},
		Duties:    []float64{0.10},
		Seeds:     8,
		M:         5,
		Coverage:  0.99,
		TopoSeed:  1,
		Parallel:  2,
	}
}

// testWorker drives the worker side of the lease protocol over HTTP,
// exactly as cmd/floodworker does — but with every step under test
// control, so expiry, zombies, and crashes land deterministically.
type testWorker struct {
	t     *testing.T
	base  string
	jobID string
	grid  *service.Grid
}

func newTestWorker(t *testing.T, base, jobID string, spec service.Spec) *testWorker {
	t.Helper()
	grid, err := service.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorker{t: t, base: base, jobID: jobID, grid: grid}
}

// post sends a JSON body and decodes the JSON reply (if any) into out.
func (w *testWorker) post(path string, in, out any) int {
	w.t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		w.t.Fatal(err)
	}
	resp, err := http.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test helper
	if out != nil && buf.Len() > 0 {
		json.Unmarshal(buf.Bytes(), out) //nolint:errcheck // some replies are error envelopes
	}
	return resp.StatusCode
}

// lease claims one chunk; ok is false when no grant was issued (204/410).
func (w *testWorker) lease(name string) (service.LeaseGrant, int) {
	var grant service.LeaseGrant
	code := w.post("/v1/jobs/"+w.jobID+"/lease", service.LeaseRequest{Worker: name}, &grant)
	return grant, code
}

// simulate runs the granted cells with the shared engine stack and
// packages them as completion outcomes.
func (w *testWorker) simulate(cells []int) []service.CellOutcome {
	w.t.Helper()
	outs := make([]service.CellOutcome, len(cells))
	for i, idx := range cells {
		rs, _ := runner.Run(context.Background(), w.grid.Jobs[idx:idx+1], w.grid.Options())
		if rs[0].Err != nil {
			w.t.Fatalf("cell %d failed: %v", idx, rs[0].Err)
		}
		outs[i] = service.CellOutcome{Index: idx, Res: rs[0].Res}
	}
	return outs
}

// complete reports outcomes for a lease.
func (w *testWorker) complete(leaseID string, outs []service.CellOutcome) (service.CompleteReply, int) {
	var reply service.CompleteReply
	code := w.post("/v1/jobs/"+w.jobID+"/lease/"+leaseID+"/complete",
		service.CompleteRequest{Worker: "test", Key: w.grid.JournalKey(), Results: outs}, &reply)
	return reply, code
}

// drainAll leases and completes chunks until the manager stops granting.
func (w *testWorker) drainAll(name string) {
	w.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		grant, code := w.lease(name)
		switch code {
		case http.StatusOK:
			if _, c := w.complete(grant.Lease, w.simulate(grant.Cells)); c != http.StatusOK {
				w.t.Fatalf("complete chunk %d = %d", grant.Chunk, c)
			}
		case http.StatusNoContent:
			time.Sleep(20 * time.Millisecond)
		case http.StatusGone, http.StatusConflict:
			return // work set settled / job left distributed mode
		default:
			w.t.Fatalf("lease = %d", code)
		}
		if time.Now().After(deadline) {
			w.t.Fatal("drainAll: work never settled")
		}
	}
}

// leaseOpts is the common distributed configuration for tests: small
// chunks, a short TTL so expiry lands fast, and a local-executor grace
// long enough that the test's own workers keep control of the sweep.
func leaseOpts(localGrace time.Duration) service.LeaseOptions {
	return service.LeaseOptions{
		ChunkSize:  2,
		TTL:        300 * time.Millisecond,
		LocalGrace: localGrace,
	}
}

// TestDistributedLocalFallback: lease mode with zero workers degrades to
// the daemon's local executor and still produces the byte-identical CSV.
func TestDistributedLocalFallback(t *testing.T) {
	want := referenceCSV(t, distSpec())
	dir := t.TempDir()
	s := newService(t, dir, service.Options{Lease: leaseOpts(0)})
	j, err := s.Submit(distSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, s, j.ID, 60*time.Second); st != service.StateDone {
		t.Fatalf("job = %s (%s)", st, j.Status().Error)
	}
	got, err := os.ReadFile(filepath.Join(dir, j.ID, "result.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("local-fallback CSV differs from direct run:\n%s\nvs\n%s", got, want)
	}
	snap := j.Registry.Snapshot()
	if snap["lease.granted"] == 0 || snap["lease.chunks.done"] != 4 {
		t.Fatalf("lease counters: %+v", snap)
	}
}

// TestDistributedZombieDropped is the zombie certification: a worker
// whose lease expired completes anyway — after another worker already
// re-ran the chunk — and every one of its cells is observably dropped,
// never double-counted, with the final CSV still byte-identical.
func TestDistributedZombieDropped(t *testing.T) {
	want := referenceCSV(t, distSpec())
	dir := t.TempDir()
	s := newService(t, dir, service.Options{Lease: leaseOpts(time.Hour)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, err := s.Submit(distSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWorker(t, ts.URL, j.ID, distSpec())

	// Worker A claims a chunk, simulates it, but goes silent past the TTL.
	var grantA service.LeaseGrant
	deadline := time.Now().Add(30 * time.Second)
	for {
		var code int
		grantA, code = w.lease("zombie")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease = %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
	outsA := w.simulate(grantA.Cells)
	time.Sleep(3 * 300 * time.Millisecond) // well past TTL + requeue backoff

	// Worker B reclaims the forfeited chunk and completes it first.
	var grantB service.LeaseGrant
	deadline = time.Now().Add(30 * time.Second)
	for {
		g, code := w.lease("reclaimer")
		if code == http.StatusOK && g.Chunk == grantA.Chunk {
			grantB = g
			break
		}
		if code == http.StatusOK {
			// Backoff gate not yet open; finish this other chunk normally.
			if _, c := w.complete(g.Lease, w.simulate(g.Cells)); c != http.StatusOK {
				t.Fatalf("complete = %d", c)
			}
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("chunk %d never requeued (last code %d)", grantA.Chunk, code)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if fmt.Sprint(grantB.Cells) != fmt.Sprint(grantA.Cells) {
		t.Fatalf("reclaimed cells %v != original %v", grantB.Cells, grantA.Cells)
	}
	if reply, code := w.complete(grantB.Lease, outsA); code != http.StatusOK || reply.Accepted != len(grantA.Cells) {
		t.Fatalf("reclaim complete = %d, %+v", code, reply)
	}

	// The zombie finally reports: every cell must be dropped, none
	// double-counted, and the reply must say so.
	reply, code := w.complete(grantA.Lease, outsA)
	if code != http.StatusOK {
		t.Fatalf("zombie complete = %d", code)
	}
	if !reply.Zombie || reply.Accepted != 0 || reply.Dropped != len(grantA.Cells) {
		t.Fatalf("zombie reply = %+v, want zombie with all %d cells dropped", reply, len(grantA.Cells))
	}

	w.drainAll("finisher")
	if st := waitState(t, s, j.ID, 60*time.Second); st != service.StateDone {
		t.Fatalf("job = %s (%s)", st, j.Status().Error)
	}
	got, err := os.ReadFile(filepath.Join(dir, j.ID, "result.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("CSV differs after zombie chaos:\n%s\nvs\n%s", got, want)
	}
	snap := j.Registry.Snapshot()
	if snap["lease.zombie.completions"] < 1 {
		t.Fatalf("lease.zombie.completions = %d, want >= 1", snap["lease.zombie.completions"])
	}
	if snap["lease.cells.duplicate"] != int64(len(grantA.Cells)) {
		t.Fatalf("lease.cells.duplicate = %d, want %d", snap["lease.cells.duplicate"], len(grantA.Cells))
	}
	if snap["lease.expired"] < 1 || snap["lease.requeues"] < 1 {
		t.Fatalf("expiry counters: expired=%d requeues=%d", snap["lease.expired"], snap["lease.requeues"])
	}
}

// TestDistributedRestartResume: workers complete part of a sweep, one
// dies holding a lease, the daemon restarts — and the new daemon rejects
// the dead worker's stale lease (410, zombie-counted), resumes from the
// journal, and finishes byte-identical.
func TestDistributedRestartResume(t *testing.T) {
	want := referenceCSV(t, distSpec())
	dir := t.TempDir()
	s1 := newService(t, dir, service.Options{Lease: leaseOpts(time.Hour)})
	ts1 := httptest.NewServer(s1.Handler())

	j, err := s1.Submit(distSpec())
	if err != nil {
		t.Fatal(err)
	}
	w1 := newTestWorker(t, ts1.URL, j.ID, distSpec())

	// Complete one chunk, then claim a second and "crash" holding it.
	var first, stale service.LeaseGrant
	deadline := time.Now().Add(30 * time.Second)
	for {
		g, code := w1.lease("w1")
		if code == http.StatusOK {
			first = g
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease = %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, code := w1.complete(first.Lease, w1.simulate(first.Cells)); code != http.StatusOK {
		t.Fatalf("complete = %d", code)
	}
	if g, code := w1.lease("w1"); code != http.StatusOK {
		t.Fatalf("second lease = %d", code)
	} else {
		stale = g
	}
	staleOuts := w1.simulate(stale.Cells)

	// Daemon restart mid-sweep.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()
	if st := j.State(); st != service.StateQueued {
		t.Fatalf("drained job = %s, want queued", st)
	}

	s2 := newService(t, dir, service.Options{Lease: leaseOpts(2 * time.Second)})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	j2, ok := s2.Job(j.ID)
	if !ok {
		t.Fatalf("job %s not resurrected", j.ID)
	}
	// Wait for the resumed job to start leasing again.
	deadline = time.Now().Add(30 * time.Second)
	for j2.State() != service.StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck in %s", j2.State())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The dead worker's completion arrives at the new daemon: its lease id
	// belongs to the previous incarnation and must be rejected as a zombie
	// (410), not silently accepted.
	w2 := newTestWorker(t, ts2.URL, j.ID, distSpec())
	reply, code := w2.complete(stale.Lease, staleOuts)
	if code != http.StatusGone {
		t.Fatalf("stale complete = %d (%+v), want 410", code, reply)
	}
	if !reply.Zombie {
		t.Fatalf("stale reply = %+v, want Zombie", reply)
	}

	// The local executor (grace elapsed) finishes the remainder.
	if st := waitState(t, s2, j.ID, 120*time.Second); st != service.StateDone {
		t.Fatalf("resumed job = %s (%s)", st, j2.Status().Error)
	}
	got, err := os.ReadFile(filepath.Join(dir, j.ID, "result.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restart-resume CSV differs:\n%s\nvs\n%s", got, want)
	}
	if st := j2.Status(); st.Resumed != len(first.Cells) {
		t.Fatalf("Resumed = %d, want %d (the journaled chunk)", st.Resumed, len(first.Cells))
	}
	if snap := j2.Registry.Snapshot(); snap["lease.zombie.completions"] < 1 {
		t.Fatalf("lease.zombie.completions = %d, want >= 1", snap["lease.zombie.completions"])
	}
}

// TestDistributedPoison: a worker reporting a terminal cell failure
// poisons the chunk immediately and fails the job with the typed error's
// message — no endless reassignment.
func TestDistributedPoison(t *testing.T) {
	s := newService(t, t.TempDir(), service.Options{Lease: leaseOpts(time.Hour)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, err := s.Submit(distSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWorker(t, ts.URL, j.ID, distSpec())
	var grant service.LeaseGrant
	deadline := time.Now().Add(30 * time.Second)
	for {
		g, code := w.lease("poisoner")
		if code == http.StatusOK {
			grant = g
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease = %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
	outs := []service.CellOutcome{{
		Index: grant.Cells[0], Error: "engine validation failed",
	}}
	if _, code := w.complete(grant.Lease, outs); code != http.StatusOK {
		t.Fatalf("terminal complete = %d", code)
	}
	if st := waitState(t, s, j.ID, 30*time.Second); st != service.StateFailed {
		t.Fatalf("job = %s, want failed", st)
	}
	if errText := j.Status().Error; !strings.Contains(errText, "poisoned") {
		t.Fatalf("error %q does not name the poisoned chunk", errText)
	}
	if snap := j.Registry.Snapshot(); snap["lease.poisoned"] != 1 {
		t.Fatalf("lease.poisoned = %d, want 1", snap["lease.poisoned"])
	}
}

// TestDistributedKeyMismatch: a completion report carrying the wrong
// journal key (daemon/worker version skew) is rejected with 409 before
// any cell is examined.
func TestDistributedKeyMismatch(t *testing.T) {
	s := newService(t, t.TempDir(), service.Options{Lease: leaseOpts(time.Hour)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, err := s.Submit(distSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWorker(t, ts.URL, j.ID, distSpec())
	var grant service.LeaseGrant
	deadline := time.Now().Add(30 * time.Second)
	for {
		g, code := w.lease("skewed")
		if code == http.StatusOK {
			grant = g
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease = %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var reply service.CompleteReply
	code := w.post("/v1/jobs/"+j.ID+"/lease/"+grant.Lease+"/complete",
		service.CompleteRequest{Worker: "skewed", Key: "sweep|something-else", Results: w.simulate(grant.Cells)},
		&reply)
	if code != http.StatusConflict {
		t.Fatalf("mismatched-key complete = %d, want 409", code)
	}
}
