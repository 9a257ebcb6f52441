// Package lease arbitrates distributed execution of a fixed set of work
// items ("cells", the batch indices of one sweep) among unreliable
// workers that may die — silently, at any instant — between any two
// protocol steps.
//
// The model is worker-pull with time-bounded ownership:
//
//   - The cells are partitioned up front into fixed-size chunks, the unit
//     of leasing.
//   - A worker calls Lease to claim a chunk. The claim is a lease: an
//     opaque id plus a deadline. Ownership is temporary by construction —
//     the protocol never needs to detect a dead worker, it only needs the
//     clock to pass its deadline.
//   - Heartbeat renews the deadline; a worker that goes silent for a full
//     TTL forfeits the chunk.
//   - Complete reports the chunk's results. Completion is idempotent per
//     cell: a cell already completed by someone else is detected and
//     dropped, never double-counted, so a zombie — a worker whose lease
//     expired but which is still running and eventually reports — is
//     harmless by design. (Because the underlying simulations are
//     deterministic, fresh cells from an expired lease are still accepted:
//     the bytes are identical to what a re-run would produce.)
//   - Expire sweeps overdue leases and requeues their chunks with capped
//     exponential backoff and deterministic jitter (seeded per chunk), so
//     a mass expiry does not thundering-herd the next Lease wave.
//   - A chunk whose leases keep getting lost — silent expiries and
//     partial reports — trips poison detection after Config.MaxAttempts:
//     the whole manager settles with a typed *PoisonError instead of
//     retrying forever. A reported cell failure poisons at once: the
//     executor has already spent its own retries on the cell, so another
//     lease would only repeat them.
//
// The Manager tracks only ownership and per-cell done/not-done; result
// payloads stay with the caller (internal/service journals them), which
// keeps this package free of simulation types. All methods are safe for
// concurrent use. Time is injectable (Config.Now) so expiry logic is
// deterministic under test.
//
// docs/SERVICE.md ("Job execution") documents the HTTP protocol
// internal/service builds on top of this package.
package lease

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/telemetry"
)

// Protocol errors. ErrNoWork and ErrFinished are the two "no chunk for
// you" answers a Lease call can return; ErrLeaseGone is the answer to any
// operation on a lease the manager no longer honors.
var (
	// ErrNoWork: every remaining chunk is leased out or backing off —
	// nothing to hand out right now, try again shortly.
	ErrNoWork = errors.New("lease: no chunk available")
	// ErrFinished: the manager has settled (all chunks done, a poison
	// trip, or Stop); no further leases will ever be granted.
	ErrFinished = errors.New("lease: work finished")
	// ErrLeaseGone: the lease id is unknown or no longer live (expired
	// and swept, superseded, or its chunk already completed).
	ErrLeaseGone = errors.New("lease: lease expired or unknown")
)

// PoisonError is the typed failure for a chunk that cannot complete:
// either a worker reported a cell failure, or Config.MaxAttempts leases
// were lost (expired silently or reported only part of the chunk). It
// fails the whole manager rather than looping forever on a chunk that
// never succeeds.
type PoisonError struct {
	// Chunk is the poisoned chunk's id.
	Chunk int
	// Cells are the global cell indices the chunk carries.
	Cells []int
	// Attempts is how many times the chunk was handed out.
	Attempts int
	// LastErr is the worker-reported failure text, or a partial-report
	// note; "" when every lost lease expired silently.
	LastErr string
}

// Error implements error.
func (e *PoisonError) Error() string {
	if e.LastErr == "" {
		return fmt.Sprintf("lease: chunk %d poisoned after %d attempts (all leases expired silently); cells %v",
			e.Chunk, e.Attempts, e.Cells)
	}
	return fmt.Sprintf("lease: chunk %d poisoned after %d attempts; cells %v; last error: %s",
		e.Chunk, e.Attempts, e.Cells, e.LastErr)
}

// Config parameterizes a Manager. Cells is required; zero values
// elsewhere take the documented defaults.
type Config struct {
	// Cells are the global work-item indices still to execute (already-
	// journaled cells are excluded by the caller). They are sorted and
	// chunked in index order.
	Cells []int
	// ChunkSize is how many cells one lease carries. <= 0 means 4.
	ChunkSize int
	// TTL is the lease lifetime; Heartbeat resets it. <= 0 means 15s.
	TTL time.Duration
	// MaxAttempts is the per-chunk poison threshold on lost leases
	// (silent expiries and partial reports). <= 0 means 5.
	MaxAttempts int
	// BackoffBase is the requeue delay after a chunk's first failed
	// attempt; it doubles per further attempt. <= 0 means 250ms.
	BackoffBase time.Duration
	// BackoffCap bounds the exponential growth. <= 0 means 15s.
	BackoffCap time.Duration
	// Seed keys the deterministic requeue jitter (mixed per chunk and
	// attempt), so distinct jobs de-synchronize differently but the same
	// job replays identically.
	Seed uint64
	// Now is the clock; nil means time.Now. Tests inject a fake.
	Now func() time.Time
	// Telemetry, when non-nil, receives the lease.* instruments
	// (docs/OBSERVABILITY.md has the catalog).
	Telemetry *telemetry.Registry
}

// Lease is one granted claim on a chunk.
type Lease struct {
	// ID is the opaque lease identifier presented back on Heartbeat and
	// Complete.
	ID string
	// Chunk is the claimed chunk's id.
	Chunk int
	// Cells are the global cell indices to execute.
	Cells []int
	// Deadline is when the lease expires unless renewed.
	Deadline time.Time
	// Worker is the claimant's self-reported name (diagnostics only).
	Worker string
}

// Accept is Complete's verdict: which cells the caller should persist and
// what was dropped.
type Accept struct {
	// Cells are the reported cells not yet completed by anyone — the
	// caller persists exactly these.
	Cells []int
	// Dropped counts reported cells that were already complete
	// (a duplicate completion, dropped to keep per-cell idempotency).
	Dropped int
	// Zombie reports that the completing lease had already expired (or was
	// superseded): the worker outlived its ownership.
	Zombie bool
}

// chunk states.
const (
	statePending = iota // waiting to be leased (possibly backing off)
	stateLeased         // owned by a live lease
	stateDone           // all cells reported
)

// chunk is one leasable unit.
type chunk struct {
	id        int
	cells     []int
	state     int
	notBefore time.Time // backoff gate while pending
	attempts  int       // times handed out
	lastErr   string    // worker-reported failure or partial-report note
	leaseID   string    // current owner while leased
}

// leaseRec is the manager-side record of a granted lease. Records are
// kept after expiry (tombstones) so a zombie completion can still be
// validated against the chunk it was granted for.
type leaseRec struct {
	chunk    int
	worker   string
	deadline time.Time
	live     bool
}

// managerTel is the resolved instrument set.
type managerTel struct {
	granted     *telemetry.Counter
	heartbeats  *telemetry.Counter
	expired     *telemetry.Counter
	requeues    *telemetry.Counter
	poisoned    *telemetry.Counter
	completions *telemetry.Counter
	zombies     *telemetry.Counter
	cellsOK     *telemetry.Counter
	cellsDup    *telemetry.Counter
	pending     *telemetry.Gauge
	leased      *telemetry.Gauge
	done        *telemetry.Gauge
}

// Manager arbitrates one work set. Construct with NewManager.
type Manager struct {
	cfg Config
	tel *managerTel

	mu        sync.Mutex
	chunks    []*chunk
	leases    map[string]*leaseRec
	cellState map[int]*chunk // global cell index -> owning chunk
	cellDone  map[int]bool
	remaining int // chunks not yet done
	nextLease int
	finished  chan struct{}
	failErr   error // settled outcome; nil on success
}

// NewManager partitions cfg.Cells into chunks and returns a Manager ready
// to grant leases.
func NewManager(cfg Config) *Manager {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 4
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 15 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 250 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 15 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Manager{
		cfg:       cfg,
		leases:    make(map[string]*leaseRec),
		cellState: make(map[int]*chunk),
		cellDone:  make(map[int]bool),
		finished:  make(chan struct{}),
	}
	if cfg.Telemetry != nil {
		reg := cfg.Telemetry
		m.tel = &managerTel{
			granted:     reg.Counter("lease.granted"),
			heartbeats:  reg.Counter("lease.heartbeats"),
			expired:     reg.Counter("lease.expired"),
			requeues:    reg.Counter("lease.requeues"),
			poisoned:    reg.Counter("lease.poisoned"),
			completions: reg.Counter("lease.completions"),
			zombies:     reg.Counter("lease.zombie.completions"),
			cellsOK:     reg.Counter("lease.cells.accepted"),
			cellsDup:    reg.Counter("lease.cells.duplicate"),
			pending:     reg.Gauge("lease.chunks.pending"),
			leased:      reg.Gauge("lease.chunks.leased"),
			done:        reg.Gauge("lease.chunks.done"),
		}
	}
	cells := append([]int(nil), cfg.Cells...)
	sort.Ints(cells)
	for start := 0; start < len(cells); start += cfg.ChunkSize {
		end := start + cfg.ChunkSize
		if end > len(cells) {
			end = len(cells)
		}
		c := &chunk{id: len(m.chunks), cells: cells[start:end], state: statePending}
		m.chunks = append(m.chunks, c)
		for _, idx := range c.cells {
			m.cellState[idx] = c
		}
	}
	m.remaining = len(m.chunks)
	if m.remaining == 0 {
		m.failErr = nil
		close(m.finished)
	}
	m.gauges()
	return m
}

// gauges refreshes the chunk-state gauges; callers hold m.mu (or are the
// constructor).
func (m *Manager) gauges() {
	if m.tel == nil {
		return
	}
	var pending, leased, done int64
	for _, c := range m.chunks {
		switch c.state {
		case statePending:
			pending++
		case stateLeased:
			leased++
		case stateDone:
			done++
		}
	}
	m.tel.pending.Set(pending)
	m.tel.leased.Set(leased)
	m.tel.done.Set(done)
}

// settled reports whether the manager has reached its final state;
// callers hold m.mu.
func (m *Manager) settled() bool {
	select {
	case <-m.finished:
		return true
	default:
		return false
	}
}

// settle latches the final outcome exactly once; callers hold m.mu.
func (m *Manager) settle(err error) {
	if m.settled() {
		return
	}
	m.failErr = err
	close(m.finished)
}

// Lease grants the lowest-id pending chunk whose backoff has elapsed. It
// returns ErrNoWork when every remaining chunk is leased or backing off,
// and ErrFinished once the manager has settled. Overdue leases are swept
// first, so callers need not run Expire on their own clock to make
// forfeited chunks reclaimable.
func (m *Manager) Lease(worker string) (*Lease, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	m.expireLocked(now)
	if m.settled() {
		return nil, ErrFinished
	}
	for _, c := range m.chunks {
		if c.state != statePending || now.Before(c.notBefore) {
			continue
		}
		m.nextLease++
		id := fmt.Sprintf("L%06d", m.nextLease)
		c.state = stateLeased
		c.attempts++
		c.leaseID = id
		deadline := now.Add(m.cfg.TTL)
		m.leases[id] = &leaseRec{chunk: c.id, worker: worker, deadline: deadline, live: true}
		if m.tel != nil {
			m.tel.granted.Inc()
		}
		m.gauges()
		return &Lease{
			ID: id, Chunk: c.id,
			Cells:    append([]int(nil), c.cells...),
			Deadline: deadline, Worker: worker,
		}, nil
	}
	return nil, ErrNoWork
}

// Heartbeat renews a live lease and returns its new deadline. A lease
// that expired (and was swept), was superseded, or whose chunk already
// completed gets ErrLeaseGone — the worker should abandon the chunk.
func (m *Manager) Heartbeat(id string) (time.Time, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	m.expireLocked(now)
	rec, ok := m.leases[id]
	if !ok || !rec.live {
		return time.Time{}, ErrLeaseGone
	}
	rec.deadline = now.Add(m.cfg.TTL)
	if m.tel != nil {
		m.tel.heartbeats.Inc()
	}
	return rec.deadline, nil
}

// Complete reports a lease's outcome. cells are the cells the worker
// finished; each must belong to the lease's chunk (anything else is a
// protocol violation that rejects the whole report and leaves the lease
// as it was). Cells nobody completed yet are accepted for the caller to
// persist, and cells already completed are dropped — the idempotency
// that makes zombie double-completions harmless. A report from an
// expired-but-known lease is still honored (the work is deterministic)
// and flagged Accept.Zombie.
//
// failed lists the cells the worker gave up on after its own retries,
// errText says why; they too must belong to the chunk. A report with a
// failed cell still lands its finished cells, and the chunk poisons the
// manager at once, returning the *PoisonError. A report that covers only
// part of the chunk without a failure is a lost lease: the chunk is
// requeued with backoff, or poisons once MaxAttempts leases are spent.
// The report is moot once the chunk is complete, and once the manager
// has settled (Stop, or another chunk's poison) it only lands its
// finished cells.
//
// An unknown lease id — a previous daemon's grant, after a restart —
// cannot be validated and is rejected with ErrLeaseGone.
func (m *Manager) Complete(id string, cells, failed []int, errText string) (Accept, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	m.expireLocked(now)
	rec, ok := m.leases[id]
	if !ok {
		if m.tel != nil {
			m.tel.zombies.Inc()
		}
		return Accept{Zombie: true}, ErrLeaseGone
	}
	c := m.chunks[rec.chunk]
	in := make(map[int]bool, len(c.cells))
	for _, idx := range c.cells {
		in[idx] = true
	}
	for _, idx := range slices.Concat(cells, failed) {
		if !in[idx] {
			return Accept{Zombie: !rec.live}, fmt.Errorf("lease: cell %d is not in chunk %d", idx, c.id)
		}
	}

	acc := Accept{Zombie: !rec.live}
	if m.tel != nil {
		m.tel.completions.Inc()
		if acc.Zombie {
			m.tel.zombies.Inc()
		}
	}
	// One report per lease: drop the record's liveness so a second
	// Complete on the same id is a zombie duplicate.
	rec.live = false
	owner := c.leaseID == id
	if owner {
		c.leaseID = ""
	}
	seen := make(map[int]bool, len(cells))
	for _, idx := range cells {
		if seen[idx] {
			continue
		}
		seen[idx] = true
		if m.cellDone[idx] {
			acc.Dropped++
			continue
		}
		m.cellDone[idx] = true
		acc.Cells = append(acc.Cells, idx)
	}
	if m.tel != nil {
		m.tel.cellsOK.Add(int64(len(acc.Cells)))
		m.tel.cellsDup.Add(int64(acc.Dropped))
	}
	defer m.gauges()

	all := true
	for _, idx := range c.cells {
		all = all && m.cellDone[idx]
	}
	switch {
	case c.state == stateDone:
		// Someone else already finished the chunk; the report is moot.
	case all:
		m.finishChunkLocked(c)
	case m.settled():
		// The work set is over; nothing is requeued or poisoned any more.
	case len(failed) > 0:
		c.lastErr = errText
		return acc, m.poisonLocked(c)
	case !owner:
		// A zombie's partial report: the chunk is already pending again or
		// owned by a newer lease, which carries its attempt budget.
	case c.attempts >= m.cfg.MaxAttempts:
		c.lastErr = fmt.Sprintf("partial completion (%d of %d cells)", len(acc.Cells)+acc.Dropped, len(c.cells))
		return acc, m.poisonLocked(c)
	default:
		// A partial report cannot finish the chunk; requeue the remainder
		// (the attempt was already charged at Lease time).
		m.requeueLocked(c, now)
	}
	return acc, nil
}

// MarkDone records cells completed outside a completion report (the
// daemon's own executor journals each cell as it finishes); their chunks
// complete once every cell is covered, which ends the chunk's lease. It
// returns the cells nobody had completed yet, for the caller to persist.
// Unknown indices are ignored.
func (m *Manager) MarkDone(cells []int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var fresh []int
	for _, idx := range cells {
		c, ok := m.cellState[idx]
		if !ok || m.cellDone[idx] {
			continue
		}
		m.cellDone[idx] = true
		fresh = append(fresh, idx)
		if c.state == stateDone {
			continue
		}
		all := true
		for _, ci := range c.cells {
			if !m.cellDone[ci] {
				all = false
				break
			}
		}
		if all {
			m.finishChunkLocked(c)
		}
	}
	m.gauges()
	return fresh
}

// finishChunkLocked marks a chunk complete, invalidating any live lease
// that still owns it (a re-grant superseded by a zombie's completion);
// callers hold m.mu.
func (m *Manager) finishChunkLocked(c *chunk) {
	if c.state == stateDone {
		return
	}
	if c.leaseID != "" {
		if rec, ok := m.leases[c.leaseID]; ok {
			rec.live = false
		}
		c.leaseID = ""
	}
	c.state = stateDone
	m.remaining--
	if m.remaining == 0 {
		m.settle(nil)
	}
}

// Expire sweeps overdue leases at the given instant: each forfeits its
// chunk, which is requeued with capped exponential backoff plus
// deterministic jitter — or poisons the manager once the chunk's attempt
// budget is spent. It returns how many leases expired. The service calls
// this on a ticker; Lease/Heartbeat/Complete also sweep lazily, so expiry
// is never blocked on the ticker.
func (m *Manager) Expire(now time.Time) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.expireLocked(now)
}

// expireLocked implements Expire; callers hold m.mu.
func (m *Manager) expireLocked(now time.Time) int {
	n := 0
	for _, rec := range m.leases {
		if !rec.live || now.Before(rec.deadline) {
			continue
		}
		rec.live = false
		n++
		if m.tel != nil {
			m.tel.expired.Inc()
		}
		c := m.chunks[rec.chunk]
		if c.state != stateLeased {
			continue
		}
		c.leaseID = ""
		if c.attempts >= m.cfg.MaxAttempts {
			m.poisonLocked(c) //nolint:errcheck // the manager is settled with it
			continue
		}
		// Backoff counts from when ownership actually lapsed (the missed
		// deadline), not from whenever the sweep happened to run — a lazily
		// discovered long-dead lease is reclaimable immediately.
		m.requeueLocked(c, rec.deadline)
	}
	if n > 0 {
		m.gauges()
	}
	return n
}

// requeueLocked returns a chunk to the pending pool behind its backoff
// gate; callers hold m.mu.
func (m *Manager) requeueLocked(c *chunk, now time.Time) {
	c.state = statePending
	c.notBefore = now.Add(m.backoff(c.id, c.attempts))
	if m.tel != nil {
		m.tel.requeues.Inc()
	}
}

// poisonLocked fails the manager with the chunk's typed error and
// returns it; callers hold m.mu. A manager that already settled (Stop)
// keeps its first outcome.
func (m *Manager) poisonLocked(c *chunk) error {
	c.state = statePending // terminal anyway; the manager is settled
	if m.tel != nil {
		m.tel.poisoned.Inc()
	}
	pe := &PoisonError{
		Chunk:    c.id,
		Cells:    append([]int(nil), c.cells...),
		Attempts: c.attempts,
		LastErr:  c.lastErr,
	}
	m.settle(pe)
	return pe
}

// backoff computes the requeue delay after a chunk's attempt'th handout:
// BackoffBase doubled per prior attempt, capped at BackoffCap, scaled by
// a deterministic jitter factor in [0.5, 1.0) mixed from (Seed, chunk,
// attempt). Pure function of its inputs — replays identically.
func (m *Manager) backoff(chunkID, attempt int) time.Duration {
	d := m.cfg.BackoffBase
	for i := 1; i < attempt && d < m.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > m.cfg.BackoffCap {
		d = m.cfg.BackoffCap
	}
	return rngutil.Jitter(d, m.cfg.Seed^uint64(chunkID)<<20^uint64(attempt))
}

// Finished returns a channel closed once the manager settles: every chunk
// done, a poison trip, or Stop.
func (m *Manager) Finished() <-chan struct{} { return m.finished }

// Err returns the settled outcome: nil after full completion, the
// *PoisonError after a poison trip, or Stop's cause. Valid once Finished
// is closed.
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failErr
}

// Stop settles the manager with the given cause (drain, cancel, timeout):
// Lease answers ErrFinished from then on, while a lease granted before
// may still report the cells it finished. Stop after settling is a no-op.
func (m *Manager) Stop(cause error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settle(cause)
}

// Progress is a coarse snapshot of the work set.
type Progress struct {
	// Cells is the total number of cells under management.
	Cells int
	// DoneCells counts cells completed (accepted or MarkDone).
	DoneCells int
	// Chunks is the total chunk count.
	Chunks int
	// DoneChunks counts completed chunks.
	DoneChunks int
	// LeasedChunks counts chunks currently owned by a live lease.
	LeasedChunks int
}

// Snapshot returns the current Progress.
func (m *Manager) Snapshot() Progress {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := Progress{Chunks: len(m.chunks)}
	for _, c := range m.chunks {
		p.Cells += len(c.cells)
		switch c.state {
		case stateDone:
			p.DoneChunks++
		case stateLeased:
			p.LeasedChunks++
		}
	}
	p.DoneCells = len(m.cellDone)
	return p
}
