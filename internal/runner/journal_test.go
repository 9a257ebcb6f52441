package runner_test

// Tests for the runner's hardening features: per-job retry with
// exponential backoff for retryable failure kinds, and journal-backed
// checkpoint/resume.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ldcflood/internal/runner"
	"ldcflood/internal/sim"
)

func TestKindRetryable(t *testing.T) {
	want := map[runner.Kind]bool{
		runner.KindSim:      false,
		runner.KindPanic:    true,
		runner.KindTimeout:  true,
		runner.KindCanceled: false,
	}
	for k, w := range want {
		if got := k.Retryable(); got != w {
			t.Errorf("%v.Retryable() = %v, want %v", k, got, w)
		}
	}
}

// flaky panics for its first `failures` Intents calls — counted across
// retry attempts via the shared counter — then goes silent like mute, so
// a recovered attempt runs cleanly to its slot horizon.
type flaky struct {
	mute
	failures *atomic.Int64
}

func (f flaky) Intents(*sim.World) []sim.Intent {
	if f.failures.Add(-1) >= 0 {
		panic("flaky: transient fault")
	}
	return nil
}

// flakyJob fails its first `failures` attempts with a panic, then runs to
// its 64-slot horizon cleanly.
func flakyJob(failures int64) sim.Config {
	var n atomic.Int64
	n.Store(failures)
	cfg := quickJob(1)
	cfg.Protocol = flaky{failures: &n}
	cfg.Coverage = 1
	cfg.MaxSlots = 64
	return cfg
}

func TestRetryRecoversTransientPanic(t *testing.T) {
	jobs := []sim.Config{flakyJob(2), quickJob(7)}
	rs, stats := runner.Run(context.Background(), jobs, runner.Options{
		Workers: 2,
		Retries: 2, // two retries = three attempts, enough for two failures
	})
	if rs[0].Err != nil {
		t.Fatalf("flaky job not recovered after retries: %v", rs[0].Err)
	}
	if rs[0].Res == nil || rs[0].Res.Completed {
		t.Fatalf("flaky job result %+v, want an uncovered 64-slot run", rs[0].Res)
	}
	if stats.Failed != 0 {
		t.Fatalf("stats.Failed = %d, want 0", stats.Failed)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	rs, _ := runner.Run(context.Background(), []sim.Config{flakyJob(5)}, runner.Options{
		Retries: 2, // three attempts < five failures
	})
	if !errors.Is(rs[0].Err, runner.ErrPanic) {
		t.Fatalf("error = %v, want the final panic", rs[0].Err)
	}
}

func TestNoRetryForNonRetryableKind(t *testing.T) {
	// An intent to an out-of-range receiver is a protocol contract
	// violation: deterministic in the Config, so KindSim and never retried.
	attempts := 0
	cfg := quickJob(3)
	n := cfg.Graph.N()
	cfg.Protocol = &sim.FuncProtocol{IntentsFunc: func(*sim.World) []sim.Intent {
		attempts++
		return []sim.Intent{{From: 0, To: n}}
	}}
	rs, _ := runner.Run(context.Background(), []sim.Config{cfg}, runner.Options{
		Retries: 3,
	})
	var je *runner.JobError
	if !errors.As(rs[0].Err, &je) || je.Kind != runner.KindSim {
		t.Fatalf("error = %v, want a KindSim *JobError", rs[0].Err)
	}
	if attempts != 1 {
		t.Fatalf("deterministic engine failure ran %d times, want 1", attempts)
	}
}

func TestRetryBackoffHonorsCancellation(t *testing.T) {
	// The first attempt panics, then the hour-long backoff must end at the
	// context deadline instead of blocking the batch.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	rs, _ := runner.Run(ctx, []sim.Config{flakyJob(100)}, runner.Options{
		Retries:      3,
		RetryBackoff: time.Hour,
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled backoff still waited %v", elapsed)
	}
	if !errors.Is(rs[0].Err, runner.ErrPanic) {
		t.Fatalf("error = %v, want the first attempt's panic", rs[0].Err)
	}
}

func TestJournalResumeProducesIdenticalResults(t *testing.T) {
	const key = "journal-test-batch-v1"
	path := filepath.Join(t.TempDir(), "sweep.journal")
	jobs := make([]sim.Config, 6)
	for i := range jobs {
		jobs[i] = quickJob(uint64(200 + i))
	}

	// Uninterrupted reference batch, no journal.
	want, _ := runner.Run(context.Background(), jobs, runner.Options{Workers: 2})

	// First attempt: sequential, canceled after two jobs — the shape of a
	// killed sweep. Completed jobs land in the journal.
	ctx, cancel := context.WithCancel(context.Background())
	nDone := 0
	j1, err := runner.OpenJournal(path, key, false)
	if err != nil {
		t.Fatal(err)
	}
	runner.Run(ctx, jobs, runner.Options{
		Workers: 1,
		Journal: j1,
		Progress: func(p runner.Progress) {
			if nDone++; nDone == 2 {
				cancel()
			}
		},
	})
	if err := j1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()

	// Resume: journaled jobs are served without simulation, the rest run.
	j2, err := runner.OpenJournal(path, key, true)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Completed() != 2 {
		t.Fatalf("resumed journal holds %d jobs, want 2", j2.Completed())
	}
	got, stats := runner.Run(context.Background(), jobs, runner.Options{
		Workers: 3,
		Journal: j2,
	})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("resumed batch failed %d jobs", stats.Failed)
	}
	if !reflect.DeepEqual(resultsOf(want), resultsOf(got)) {
		t.Fatal("resumed batch results differ from the uninterrupted run")
	}

	// A third run against the now-complete journal simulates nothing and
	// still matches.
	j3, err := runner.OpenJournal(path, key, true)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Completed() != len(jobs) {
		t.Fatalf("journal holds %d jobs, want %d", j3.Completed(), len(jobs))
	}
	again, _ := runner.Run(context.Background(), jobs, runner.Options{Journal: j3})
	j3.Close()
	if !reflect.DeepEqual(resultsOf(want), resultsOf(again)) {
		t.Fatal("fully journaled batch results differ from the uninterrupted run")
	}
}

// resultsOf projects a batch onto its sim results (dropping wall-clock
// dependent stats) for equality comparison.
func resultsOf(rs runner.Results) []*sim.Result {
	out := make([]*sim.Result, len(rs))
	for i := range rs {
		out[i] = rs[i].Res
	}
	return out
}

func TestJournalKeyMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := runner.OpenJournal(path, "batch-a", false)
	if err != nil {
		t.Fatal(err)
	}
	runner.Run(context.Background(), []sim.Config{quickJob(1)}, runner.Options{Journal: j})
	j.Close()
	if _, err := runner.OpenJournal(path, "batch-b", true); err == nil {
		t.Fatal("resuming with a different batch key succeeded")
	}
}

func TestJournalResumeTornTrailingLine(t *testing.T) {
	const key = "torn"
	path := filepath.Join(t.TempDir(), "sweep.journal")
	jobs := []sim.Config{quickJob(11), quickJob(12)}
	j, err := runner.OpenJournal(path, key, false)
	if err != nil {
		t.Fatal(err)
	}
	runner.Run(context.Background(), jobs, runner.Options{Workers: 1, Journal: j})
	j.Close()

	// Tear the final record mid-line, as a kill -9 during a write would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := runner.OpenJournal(path, key, true)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Completed() != 1 {
		t.Fatalf("torn journal holds %d jobs, want 1 (torn record dropped)", j2.Completed())
	}
	rs, stats := runner.Run(context.Background(), jobs, runner.Options{Journal: j2})
	if stats.Failed != 0 || rs[1].Res == nil {
		t.Fatalf("re-run of torn job failed: %v", rs.Err())
	}
	if err := j2.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// A second resume must see every record: the torn fragment has to be
	// truncated before appending, not fused with the re-run's record.
	j3, err := runner.OpenJournal(path, key, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Completed() != len(jobs) {
		t.Fatalf("second resume holds %d jobs, want %d (record fused with torn fragment)",
			j3.Completed(), len(jobs))
	}
}

// TestJournalResumeTornHeader is the first-write crash: the run was
// killed mid-way through writing the header line itself, leaving a
// recognizable fragment and not a single complete line. Resume must
// treat the file as empty and rewrite a fresh header — not fail
// unrecoverably — while a fragment that is NOT ours still fails loudly.
func TestJournalResumeTornHeader(t *testing.T) {
	const key = "torn-header"
	full := []byte(`{"journal":"ldcflood-runner","v":1,"key":"torn-header"}`)
	for cut := 1; cut <= len(full); cut += 7 {
		path := filepath.Join(t.TempDir(), "sweep.journal")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := runner.OpenJournal(path, key, true)
		if err != nil {
			t.Fatalf("resume with header torn at byte %d: %v", cut, err)
		}
		if j.Completed() != 0 {
			t.Fatalf("torn-header journal holds %d jobs", j.Completed())
		}
		rs, _ := runner.Run(context.Background(), []sim.Config{quickJob(3)}, runner.Options{Journal: j})
		if rs[0].Err != nil {
			t.Fatal(rs[0].Err)
		}
		j.Close()
		// The rewritten file must resume cleanly.
		j2, err := runner.OpenJournal(path, key, true)
		if err != nil {
			t.Fatalf("second resume after torn-header rewrite: %v", err)
		}
		if j2.Completed() != 1 {
			t.Fatalf("rewritten journal holds %d jobs, want 1", j2.Completed())
		}
		j2.Close()
	}

	// A non-journal fragment keeps the clobber guard: resume must refuse.
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte(`{"journal":"something-else`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.OpenJournal(path, key, true); err == nil {
		t.Fatal("resuming a non-journal fragment succeeded; would clobber the file")
	}
}

// TestReadJournalKey pins the header-only reader used by cmd/sweep's
// legacy-journal diagnostics.
func TestReadJournalKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := runner.OpenJournal(path, "the-key", false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	key, err := runner.ReadJournalKey(path)
	if err != nil {
		t.Fatal(err)
	}
	if key != "the-key" {
		t.Fatalf("ReadJournalKey = %q, want %q", key, "the-key")
	}
	if _, err := runner.ReadJournalKey(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("ReadJournalKey on a missing file succeeded")
	}
	bogus := filepath.Join(t.TempDir(), "bogus")
	if err := os.WriteFile(bogus, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.ReadJournalKey(bogus); err == nil {
		t.Fatal("ReadJournalKey on a non-journal file succeeded")
	}
}

// TestJournalRecordIdempotent pins the out-of-band write path the
// distributed lease protocol journals worker completions through: the
// first Record for an index lands, a duplicate is refused, and the
// journaled set round-trips a resume.
func TestJournalRecordIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := runner.OpenJournal(path, "record", false)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := runner.Run(context.Background(), []sim.Config{quickJob(21)}, runner.Options{})
	if rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
	if !j.Record(0, rs[0].Res) {
		t.Fatal("first Record refused")
	}
	if j.Record(0, rs[0].Res) {
		t.Fatal("duplicate Record accepted; the cell would be journaled twice")
	}
	if got, ok := j.Done(0); !ok || got != rs[0].Res {
		t.Fatal("Record did not land in the done set")
	}
	j.Close()
	j2, err := runner.OpenJournal(path, "record", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Completed() != 1 {
		t.Fatalf("resumed journal holds %d records, want 1", j2.Completed())
	}
}

func TestJournalResumeMissingFileStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.journal")
	j, err := runner.OpenJournal(path, "fresh", true)
	if err != nil {
		t.Fatalf("resume of a missing journal: %v", err)
	}
	defer j.Close()
	if j.Completed() != 0 {
		t.Fatalf("fresh journal holds %d jobs", j.Completed())
	}
	rs, _ := runner.Run(context.Background(), []sim.Config{quickJob(5)}, runner.Options{Journal: j})
	if rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
}
