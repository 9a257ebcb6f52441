package lease

import (
	"errors"
	"slices"
	"testing"
	"time"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/telemetry"
)

// fakeClock is a manually-advanced clock for deterministic expiry tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1000, 0)} }
func ints(vs ...int) []int                   { return vs }
func mustLease(t *testing.T, m *Manager) *Lease {
	t.Helper()
	l, err := m.Lease("w")
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	return l
}

func TestLeaseCompleteLifecycle(t *testing.T) {
	clk := newClock()
	reg := telemetry.New()
	m := NewManager(Config{Cells: ints(0, 1, 2, 3, 4), ChunkSize: 2, TTL: time.Second, Now: clk.now, Telemetry: reg})

	var leases []*Lease
	for i := 0; i < 3; i++ {
		l := mustLease(t, m)
		leases = append(leases, l)
	}
	if _, err := m.Lease("w"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("fourth lease: got %v, want ErrNoWork", err)
	}
	// Chunks are [0,1], [2,3], [4] in index order.
	if got := leases[0].Cells; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("first chunk cells = %v", got)
	}
	if got := leases[2].Cells; len(got) != 1 || got[0] != 4 {
		t.Fatalf("third chunk cells = %v", got)
	}
	for _, l := range leases {
		acc, err := m.Complete(l.ID, l.Cells, nil, "")
		if err != nil {
			t.Fatalf("Complete: %v", err)
		}
		if len(acc.Cells) != len(l.Cells) || acc.Dropped != 0 || acc.Zombie {
			t.Fatalf("accept = %+v, want all cells fresh", acc)
		}
	}
	select {
	case <-m.Finished():
	default:
		t.Fatal("manager not finished after all chunks completed")
	}
	if err := m.Err(); err != nil {
		t.Fatalf("Err after success: %v", err)
	}
	if _, err := m.Lease("w"); !errors.Is(err, ErrFinished) {
		t.Fatalf("lease after finish: got %v, want ErrFinished", err)
	}
	if v := reg.Counter("lease.cells.accepted").Value(); v != 5 {
		t.Fatalf("lease.cells.accepted = %d, want 5", v)
	}
}

func TestHeartbeatExtendsAndExpiryForfeits(t *testing.T) {
	clk := newClock()
	m := NewManager(Config{Cells: ints(0, 1), ChunkSize: 2, TTL: time.Second,
		BackoffBase: 100 * time.Millisecond, Now: clk.now})
	l := mustLease(t, m)

	clk.advance(900 * time.Millisecond)
	dl, err := m.Heartbeat(l.ID)
	if err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	if want := clk.now().Add(time.Second); !dl.Equal(want) {
		t.Fatalf("renewed deadline = %v, want %v", dl, want)
	}
	// Renewal carried it past the original deadline.
	clk.advance(900 * time.Millisecond)
	if _, err := m.Heartbeat(l.ID); err != nil {
		t.Fatalf("Heartbeat after renewal: %v", err)
	}
	// Silence for a full TTL forfeits the chunk.
	clk.advance(time.Second)
	if n := m.Expire(clk.now()); n != 1 {
		t.Fatalf("Expire = %d, want 1", n)
	}
	if _, err := m.Heartbeat(l.ID); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("heartbeat after expiry: got %v, want ErrLeaseGone", err)
	}
	// The chunk is backing off; immediately re-leasing finds nothing...
	if _, err := m.Lease("w2"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("lease during backoff: got %v, want ErrNoWork", err)
	}
	// ...but becomes available once the (jittered, <= base) gate passes.
	clk.advance(100 * time.Millisecond)
	l2 := mustLease(t, m)
	if l2.Chunk != l.Chunk {
		t.Fatalf("re-lease granted chunk %d, want %d", l2.Chunk, l.Chunk)
	}
}

func TestZombieCompletionsAreDroppedNotDoubleCounted(t *testing.T) {
	clk := newClock()
	reg := telemetry.New()
	m := NewManager(Config{Cells: ints(0, 1), ChunkSize: 2, TTL: time.Second,
		BackoffBase: time.Millisecond, Now: clk.now, Telemetry: reg})

	l1 := mustLease(t, m)
	clk.advance(2 * time.Second) // l1 expires silently
	clk.advance(time.Second)     // past the backoff gate
	l2 := mustLease(t, m)
	if l2.ID == l1.ID {
		t.Fatal("re-grant reused the lease id")
	}

	// The second worker completes first.
	if _, err := m.Complete(l2.ID, l2.Cells, nil, ""); err != nil {
		t.Fatalf("Complete(l2): %v", err)
	}
	// The zombie reports late: detected, dropped, never double-counted.
	acc, err := m.Complete(l1.ID, l1.Cells, nil, "")
	if err != nil {
		t.Fatalf("Complete(zombie): %v", err)
	}
	if !acc.Zombie || len(acc.Cells) != 0 || acc.Dropped != 2 {
		t.Fatalf("zombie accept = %+v, want Zombie, 0 fresh, 2 dropped", acc)
	}
	if v := reg.Counter("lease.zombie.completions").Value(); v != 1 {
		t.Fatalf("lease.zombie.completions = %d, want 1", v)
	}
	if v := reg.Counter("lease.cells.duplicate").Value(); v != 2 {
		t.Fatalf("lease.cells.duplicate = %d, want 2", v)
	}
	if v := reg.Counter("lease.cells.accepted").Value(); v != 2 {
		t.Fatalf("lease.cells.accepted = %d, want 2 (never double-counted)", v)
	}
}

func TestZombieFreshCellsAcceptedOnce(t *testing.T) {
	// A zombie whose chunk nobody re-completed yet: its (deterministic)
	// results are fresh and accepted, flagged as a zombie completion. The
	// re-leased worker's later report is then the duplicate.
	clk := newClock()
	m := NewManager(Config{Cells: ints(0, 1, 2), ChunkSize: 3, TTL: time.Second,
		BackoffBase: time.Millisecond, Now: clk.now})
	l1 := mustLease(t, m)
	clk.advance(3 * time.Second)
	l2 := mustLease(t, m) // chunk re-granted; l1 is now a zombie
	acc, err := m.Complete(l1.ID, l1.Cells, nil, "")
	if err != nil {
		t.Fatalf("Complete(zombie): %v", err)
	}
	if !acc.Zombie || len(acc.Cells) != 3 {
		t.Fatalf("zombie accept = %+v, want 3 fresh cells", acc)
	}
	// The superseded re-grant is invalidated by the completion.
	if _, err := m.Heartbeat(l2.ID); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("heartbeat on superseded lease: got %v, want ErrLeaseGone", err)
	}
	acc2, err := m.Complete(l2.ID, l2.Cells, nil, "")
	if err != nil {
		t.Fatalf("Complete(superseded): %v", err)
	}
	if len(acc2.Cells) != 0 || acc2.Dropped != 3 {
		t.Fatalf("superseded accept = %+v, want all dropped", acc2)
	}
}

func TestUnknownLeaseRejected(t *testing.T) {
	m := NewManager(Config{Cells: ints(0), Now: newClock().now})
	if _, err := m.Complete("L999999", ints(0), nil, ""); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("unknown lease: got %v, want ErrLeaseGone", err)
	}
	if _, err := m.Heartbeat("L999999"); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("Lease after poison: got %v, want ErrFinished", err)
	}
}

func TestForeignCellsRejected(t *testing.T) {
	clk := newClock()
	m := NewManager(Config{Cells: ints(0, 1, 2, 3), ChunkSize: 2, Now: clk.now})
	l := mustLease(t, m)
	if _, err := m.Complete(l.ID, ints(0, 3), nil, ""); err == nil {
		t.Fatal("Complete with a foreign cell succeeded, want validation error")
	}
	// A failure naming a cell the lease never held is a violation too: it
	// must not poison the work set.
	var pe *PoisonError
	if _, err := m.Complete(l.ID, ints(0), ints(2), "boom"); err == nil || errors.As(err, &pe) {
		t.Fatalf("Complete with a foreign failed cell: got %v, want validation error", err)
	}
	select {
	case <-m.Finished():
		t.Fatalf("a rejected report settled the manager: %v", m.Err())
	default:
	}
	if acc, err := m.Complete(l.ID, l.Cells, nil, ""); err != nil || len(acc.Cells) != 2 {
		t.Fatalf("Complete after rejected reports = %+v, %v; want both cells", acc, err)
	}
}

// TestCompleteAfterStop: a lease granted before Stop still lands the
// cells it finished, and its partial report neither requeues nor poisons
// the chunk — the drained daemon keeps finished work in its journal.
func TestCompleteAfterStop(t *testing.T) {
	clk := newClock()
	reg := telemetry.New()
	m := NewManager(Config{Cells: ints(0, 1, 2), ChunkSize: 3, MaxAttempts: 1, Now: clk.now, Telemetry: reg})
	l := mustLease(t, m)
	stop := errors.New("drain")
	m.Stop(stop)
	acc, err := m.Complete(l.ID, ints(0, 1), nil, "")
	if err != nil || !slices.Equal(acc.Cells, ints(0, 1)) {
		t.Fatalf("Complete after Stop = %+v, %v; want cells [0 1]", acc, err)
	}
	if got := m.Err(); got != stop {
		t.Fatalf("Err = %v, want the Stop cause", got)
	}
	if n := reg.Counter("lease.requeues").Value() + reg.Counter("lease.poisoned").Value(); n != 0 {
		t.Fatalf("requeues+poisoned = %d after Stop, want 0", n)
	}
}

func TestPoisonAfterRepeatedExpiry(t *testing.T) {
	clk := newClock()
	reg := telemetry.New()
	m := NewManager(Config{Cells: ints(0, 1), ChunkSize: 2, TTL: time.Second,
		MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffCap: time.Millisecond,
		Now: clk.now, Telemetry: reg})
	for i := 0; i < 3; i++ {
		mustLease(t, m)
		clk.advance(5 * time.Second)
		m.Expire(clk.now())
	}
	select {
	case <-m.Finished():
	default:
		t.Fatal("manager not settled after poison threshold")
	}
	var pe *PoisonError
	if err := m.Err(); !errors.As(err, &pe) {
		t.Fatalf("Err = %v, want *PoisonError", err)
	} else if pe.Attempts != 3 || pe.LastErr != "" {
		t.Fatalf("poison = %+v, want 3 silent attempts", pe)
	}
	if v := reg.Counter("lease.poisoned").Value(); v != 1 {
		t.Fatalf("lease.poisoned = %d, want 1", v)
	}
}

// TestPoisonCarriesWorkerError: a failure report poisons its chunk on
// the first attempt — the worker already spent the spec's retries — and
// the typed error carries the worker's text.
func TestPoisonCarriesWorkerError(t *testing.T) {
	clk := newClock()
	m := NewManager(Config{Cells: ints(7, 8), ChunkSize: 2, TTL: time.Second,
		MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffCap: time.Millisecond, Now: clk.now})
	l := mustLease(t, m)
	_, err := m.Complete(l.ID, nil, ints(8), "sim exploded")
	var pe *PoisonError
	if !errors.As(err, &pe) {
		t.Fatalf("failure report: got %v, want *PoisonError", err)
	}
	if pe.LastErr != "sim exploded" || pe.Chunk != 0 || len(pe.Cells) != 2 || pe.Attempts != 1 {
		t.Fatalf("poison = %+v", pe)
	}
	if got := m.Err(); got != err {
		t.Fatalf("Err = %v, want the returned *PoisonError", got)
	}
}

// TestTerminalFailurePoisonsImmediately: any failure report poisons at
// once, whatever attempt budget remains, and the cells the report did
// finish are still accepted for the caller to persist.
func TestTerminalFailurePoisonsImmediately(t *testing.T) {
	clk := newClock()
	reg := telemetry.New()
	m := NewManager(Config{Cells: ints(0, 1), ChunkSize: 2, MaxAttempts: 10, Now: clk.now, Telemetry: reg})
	l := mustLease(t, m)
	acc, err := m.Complete(l.ID, ints(0), ints(1), "cell 1: invalid config")
	var pe *PoisonError
	if !errors.As(err, &pe) {
		t.Fatalf("failure report: got %v, want immediate *PoisonError", err)
	}
	if pe.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry burn-down)", pe.Attempts)
	}
	if len(acc.Cells) != 1 || acc.Cells[0] != 0 {
		t.Fatalf("accept = %+v, want the finished cell 0", acc)
	}
	if _, err := m.Lease("w"); !errors.Is(err, ErrFinished) {
		t.Fatalf("lease after poison: got %v, want ErrFinished", err)
	}
	if v := reg.Counter("lease.requeues").Value(); v != 0 {
		t.Fatalf("lease.requeues = %d, want 0", v)
	}
}

func TestBackoffDeterministicCappedJittered(t *testing.T) {
	m := NewManager(Config{Cells: ints(0), BackoffBase: 100 * time.Millisecond,
		BackoffCap: time.Second, Seed: 42, Now: newClock().now})
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := m.backoff(3, attempt)
		d2 := m.backoff(3, attempt)
		if d1 != d2 {
			t.Fatalf("backoff(3, %d) not deterministic: %v vs %v", attempt, d1, d2)
		}
		if d1 > time.Second {
			t.Fatalf("backoff(3, %d) = %v exceeds cap", attempt, d1)
		}
		if d1 <= 0 {
			t.Fatalf("backoff(3, %d) = %v, want > 0", attempt, d1)
		}
	}
	// Jitter de-synchronizes chunks: not every chunk backs off identically.
	same := true
	ref := m.backoff(0, 2)
	for c := 1; c < 8; c++ {
		if m.backoff(c, 2) != ref {
			same = false
		}
	}
	if same {
		t.Fatal("backoff identical across chunks — jitter not applied")
	}
}

func TestJitterRangeAndDeterminism(t *testing.T) {
	base := time.Second
	for key := uint64(0); key < 1000; key++ {
		d := rngutil.Jitter(base, key)
		if d < base/2 || d >= base {
			t.Fatalf("Jitter(1s, %d) = %v outside [500ms, 1s)", key, d)
		}
		if d != rngutil.Jitter(base, key) {
			t.Fatalf("Jitter(1s, %d) not deterministic", key)
		}
	}
	if rngutil.Jitter(0, 7) != 0 {
		t.Fatal("Jitter(0) != 0")
	}
}

// TestMarkDoneEndsLease: the daemon's own executor marks a leased
// chunk's cells done one by one; MarkDone returns only cells nobody had
// completed, and covering the chunk ends its lease without a report.
func TestMarkDoneEndsLease(t *testing.T) {
	clk := newClock()
	m := NewManager(Config{Cells: ints(0, 1, 2, 3), ChunkSize: 2, TTL: time.Second, Now: clk.now})
	l := mustLease(t, m)
	if fresh := m.MarkDone(ints(0)); !slices.Equal(fresh, ints(0)) {
		t.Fatalf("MarkDone(0) = %v, want [0]", fresh)
	}
	if fresh := m.MarkDone(ints(0, 1)); !slices.Equal(fresh, ints(1)) {
		t.Fatalf("MarkDone(0, 1) = %v, want [1]", fresh)
	}
	if _, err := m.Heartbeat(l.ID); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("Heartbeat after MarkDone covered the chunk: got %v, want ErrLeaseGone", err)
	}
	if p := m.Snapshot(); p.DoneChunks != 1 || p.LeasedChunks != 0 {
		t.Fatalf("snapshot = %+v, want 1 chunk done, none leased", p)
	}
}

func TestMarkDoneCompletesChunks(t *testing.T) {
	clk := newClock()
	m := NewManager(Config{Cells: ints(0, 1, 2, 3), ChunkSize: 2, Now: clk.now})
	m.MarkDone(ints(0, 1, 2))
	p := m.Snapshot()
	if p.DoneCells != 3 || p.DoneChunks != 1 {
		t.Fatalf("snapshot = %+v, want 3 cells / 1 chunk done", p)
	}
	m.MarkDone(ints(3, 99)) // unknown index ignored
	select {
	case <-m.Finished():
	default:
		t.Fatal("manager not finished after MarkDone covered every cell")
	}
	if err := m.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
}

func TestPartialCompletionRequeuesRemainder(t *testing.T) {
	clk := newClock()
	m := NewManager(Config{Cells: ints(0, 1, 2), ChunkSize: 3, TTL: time.Second,
		BackoffBase: time.Millisecond, BackoffCap: time.Millisecond, Now: clk.now})
	l := mustLease(t, m)
	acc, err := m.Complete(l.ID, ints(0), nil, "")
	if err != nil {
		t.Fatalf("partial Complete: %v", err)
	}
	if len(acc.Cells) != 1 {
		t.Fatalf("accept = %+v, want cell 0 accepted", acc)
	}
	clk.advance(10 * time.Millisecond)
	l2 := mustLease(t, m)
	if l2.Chunk != l.Chunk {
		t.Fatalf("requeued chunk = %d, want %d", l2.Chunk, l.Chunk)
	}
	acc, err = m.Complete(l2.ID, l2.Cells, nil, "")
	if err != nil {
		t.Fatalf("second Complete: %v", err)
	}
	if len(acc.Cells) != 2 || acc.Dropped != 1 {
		t.Fatalf("accept = %+v, want 2 fresh + 1 duplicate", acc)
	}
	select {
	case <-m.Finished():
	default:
		t.Fatal("manager not finished")
	}
}

func TestStopSettlesWithCause(t *testing.T) {
	cause := errors.New("draining")
	m := NewManager(Config{Cells: ints(0, 1), Now: newClock().now})
	l := mustLease(t, m)
	m.Stop(cause)
	if err := m.Err(); !errors.Is(err, cause) {
		t.Fatalf("Err = %v, want the stop cause", err)
	}
	if _, err := m.Lease("w"); !errors.Is(err, ErrFinished) {
		t.Fatalf("lease after stop: got %v, want ErrFinished", err)
	}
	// In-flight completions after Stop are still answered coherently.
	if _, err := m.Complete(l.ID, l.Cells, nil, ""); err != nil {
		t.Fatalf("complete after stop: %v", err)
	}
}

func TestEmptyManagerFinishesImmediately(t *testing.T) {
	m := NewManager(Config{Now: newClock().now})
	select {
	case <-m.Finished():
	default:
		t.Fatal("empty manager not finished")
	}
	if _, err := m.Lease("w"); !errors.Is(err, ErrFinished) {
		t.Fatalf("lease on empty manager: got %v, want ErrFinished", err)
	}
}
