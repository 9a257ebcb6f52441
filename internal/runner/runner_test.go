package runner_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/runner"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// mute never transmits: its packets never cover, so a run only ends at its
// slot horizon — the shape of a runaway simulation.
type mute struct{}

func (mute) Name() string                    { return "MUTE" }
func (mute) Reset(*sim.World)                {}
func (mute) Intents(*sim.World) []sim.Intent { return nil }
func (mute) CollisionsApply() bool           { return true }
func (mute) Overhears() bool                 { return false }

// bomb panics on its first slot.
type bomb struct{ mute }

func (bomb) Intents(*sim.World) []sim.Intent { panic("bomb: injected fault") }

// quickJob is a small OPT flood that completes in well under a thousand
// slots.
func quickJob(seed uint64) sim.Config {
	g := topology.Line(6, 1)
	p, err := flood.New("opt")
	if err != nil {
		panic(err)
	}
	return sim.Config{
		Graph:     g,
		Schedules: schedule.AssignUniform(g.N(), 4, rngutil.New(seed).SubName("schedule")),
		Protocol:  p,
		M:         2,
		Coverage:  1,
		Seed:      seed,
	}
}

// stuckJob never covers and would simulate ~10^12 slots if nothing stopped
// it.
func stuckJob(seed uint64) sim.Config {
	cfg := quickJob(seed)
	cfg.Protocol = mute{}
	cfg.MaxSlots = 1 << 40
	return cfg
}

func TestRunOrderAndStats(t *testing.T) {
	jobs := make([]sim.Config, 5)
	for i := range jobs {
		jobs[i] = quickJob(uint64(100 + i))
	}
	rs, stats := runner.Run(context.Background(), jobs, runner.Options{Workers: 3})
	if len(rs) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(rs), len(jobs))
	}
	var wantSlots int64
	for i := range rs {
		if rs[i].Index != i {
			t.Fatalf("result %d carries index %d", i, rs[i].Index)
		}
		if rs[i].Err != nil || rs[i].Res == nil {
			t.Fatalf("job %d failed: %v", i, rs[i].Err)
		}
		// Each slot must hold exactly the output of a direct engine call
		// with the same config.
		direct, err := sim.Run(quickJob(uint64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if rs[i].Res.TotalSlots != direct.TotalSlots || rs[i].Res.Transmissions != direct.Transmissions {
			t.Fatalf("job %d diverged from direct run: %d/%d vs %d/%d",
				i, rs[i].Res.TotalSlots, rs[i].Res.Transmissions, direct.TotalSlots, direct.Transmissions)
		}
		wantSlots += direct.TotalSlots
	}
	if stats.Jobs != 5 || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want 5 jobs, 0 failed", stats)
	}
	if stats.Slots != wantSlots {
		t.Fatalf("stats.Slots = %d, want %d", stats.Slots, wantSlots)
	}
	if sims, err := rs.Sims(); err != nil || len(sims) != 5 {
		t.Fatalf("Sims() = %d results, err %v", len(sims), err)
	}
}

func TestPanicBecomesJobError(t *testing.T) {
	jobs := []sim.Config{quickJob(1), quickJob(2), quickJob(3)}
	jobs[1].Protocol = bomb{}
	rs, stats := runner.Run(context.Background(), jobs, runner.Options{Workers: 2})
	var je *runner.JobError
	if !errors.As(rs[1].Err, &je) {
		t.Fatalf("job 1 error = %v, want *JobError", rs[1].Err)
	}
	if je.Kind != runner.KindPanic || je.Index != 1 || len(je.Stack) == 0 {
		t.Fatalf("job 1 error = %+v, want KindPanic with stack", je)
	}
	if !errors.Is(rs[1].Err, runner.ErrPanic) {
		t.Fatal("errors.Is(err, ErrPanic) = false")
	}
	// The other jobs must be unaffected by their neighbor's panic.
	for _, i := range []int{0, 2} {
		if rs[i].Err != nil || rs[i].Res == nil {
			t.Fatalf("job %d did not survive the panic: %v", i, rs[i].Err)
		}
	}
	if stats.Failed != 1 {
		t.Fatalf("stats.Failed = %d, want 1", stats.Failed)
	}
	if rs.Err() == nil || !errors.Is(rs.Err(), runner.ErrPanic) {
		t.Fatalf("Results.Err() = %v, want the panic", rs.Err())
	}
	if _, err := rs.Sims(); err == nil {
		t.Fatal("Sims() ignored the failure")
	}
}

func TestTimeoutBecomesJobError(t *testing.T) {
	jobs := []sim.Config{quickJob(1), stuckJob(2), quickJob(3)}
	rs, _ := runner.Run(context.Background(), jobs, runner.Options{
		Workers: 3,
		Timeout: 50 * time.Millisecond,
	})
	var je *runner.JobError
	if !errors.As(rs[1].Err, &je) || je.Kind != runner.KindTimeout {
		t.Fatalf("stuck job error = %v, want KindTimeout", rs[1].Err)
	}
	if !errors.Is(rs[1].Err, runner.ErrTimeout) {
		t.Fatalf("timeout error %v does not unwrap to ErrTimeout", rs[1].Err)
	}
	// A runner-imposed timeout is not a caller interrupt: the JobError
	// contract reserves sim.ErrInterrupted for caller-supplied hooks.
	if errors.Is(rs[1].Err, sim.ErrInterrupted) {
		t.Fatalf("timeout error %v unwraps to sim.ErrInterrupted", rs[1].Err)
	}
	for _, i := range []int{0, 2} {
		if rs[i].Err != nil {
			t.Fatalf("job %d did not survive the timeout: %v", i, rs[i].Err)
		}
	}
}

func TestCancelInterruptsRunningJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Two workers: one takes the stuck job, the other finishes the quick
	// job and cancels the batch from the progress hook, which must
	// interrupt the stuck job at its next poll.
	jobs := []sim.Config{stuckJob(1), quickJob(2)}
	rs, stats := runner.Run(ctx, jobs, runner.Options{
		Workers:  2,
		Progress: func(runner.Progress) { cancel() },
	})
	if rs[1].Err != nil {
		t.Fatalf("quick job failed: %v", rs[1].Err)
	}
	var je *runner.JobError
	if !errors.As(rs[0].Err, &je) || je.Kind != runner.KindCanceled {
		t.Fatalf("stuck job error = %v, want KindCanceled", rs[0].Err)
	}
	if !errors.Is(rs[0].Err, runner.ErrCanceled) || !errors.Is(rs[0].Err, context.Canceled) {
		t.Fatalf("cancel error %v does not unwrap to ErrCanceled and context.Canceled", rs[0].Err)
	}
	if errors.Is(rs[0].Err, sim.ErrInterrupted) {
		t.Fatalf("cancel error %v unwraps to sim.ErrInterrupted", rs[0].Err)
	}
	if stats.Failed != 1 {
		t.Fatalf("stats.Failed = %d, want 1", stats.Failed)
	}
}

func TestCancelSkipsUnstartedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []sim.Config{quickJob(1), quickJob(2), quickJob(3)}
	first := true
	rs, stats := runner.Run(ctx, jobs, runner.Options{
		Workers: 1, // sequential, so jobs 1 and 2 have not started at cancel
		Progress: func(runner.Progress) {
			if first {
				first = false
				cancel()
			}
		},
	})
	if rs[0].Err != nil || rs[0].Res == nil {
		t.Fatalf("job 0 failed: %v", rs[0].Err)
	}
	for _, i := range []int{1, 2} {
		var je *runner.JobError
		if !errors.As(rs[i].Err, &je) || je.Kind != runner.KindCanceled {
			t.Fatalf("job %d error = %v, want KindCanceled", i, rs[i].Err)
		}
		if !errors.Is(rs[i].Err, context.Canceled) {
			t.Fatalf("job %d error %v does not unwrap to context.Canceled", i, rs[i].Err)
		}
		if rs[i].Res != nil {
			t.Fatalf("job %d ran after cancellation", i)
		}
	}
	if stats.Failed != 2 {
		t.Fatalf("stats.Failed = %d, want 2", stats.Failed)
	}
}

func TestProgressSnapshots(t *testing.T) {
	jobs := make([]sim.Config, 4)
	for i := range jobs {
		jobs[i] = quickJob(uint64(i + 1))
	}
	var snaps []runner.Progress
	rs, _ := runner.Run(context.Background(), jobs, runner.Options{
		Workers:  2,
		Progress: func(p runner.Progress) { snaps = append(snaps, p) },
	})
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(jobs) {
		t.Fatalf("progress fired %d times, want %d", len(snaps), len(jobs))
	}
	for i, p := range snaps {
		if p.Done != i+1 || p.Total != len(jobs) || p.Failed != 0 {
			t.Fatalf("snapshot %d = %+v", i, p)
		}
		if i > 0 && p.Slots < snaps[i-1].Slots {
			t.Fatalf("slots went backwards: %d after %d", p.Slots, snaps[i-1].Slots)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	rs, stats := runner.Run(context.Background(), nil, runner.Options{})
	if len(rs) != 0 || stats.Jobs != 0 || stats.Failed != 0 {
		t.Fatalf("empty batch: results=%d stats=%+v", len(rs), stats)
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSeedsDeterministicAndDistinct(t *testing.T) {
	a := runner.Seeds(7, 64)
	b := runner.Seeds(7, 64)
	seen := make(map[uint64]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Seeds not reproducible at %d: %d vs %d", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Fatalf("duplicate seed %d at index %d", a[i], i)
		}
		seen[a[i]] = true
	}
	if c := runner.Seeds(8, 64); c[0] == a[0] && c[1] == a[1] {
		t.Fatal("different bases produced the same seed prefix")
	}
}
