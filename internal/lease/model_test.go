package lease

// Model-based test: random interleavings of every Manager operation,
// replayed against a small reference state machine that restates the
// protocol's rules (docs/SERVICE.md, "Job execution") in the plainest
// terms. Each step compares the manager's answer with the model's, then
// checks the invariants every floodd job relies on:
//
//   - every cell is accepted (handed to the caller to persist) at most
//     once, and exactly once by the time the work set finishes cleanly;
//   - Finished closes only when every cell is done, or on poison or Stop;
//   - Err matches the model's outcome.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refChunk is the model's view of one chunk.
type refChunk struct {
	cells     []int
	state     int // statePending, stateLeased, stateDone
	notBefore time.Time
	attempts  int
	owner     string // live lease owning the chunk
	lastErr   string
}

// refLease is the model's view of one granted lease.
type refLease struct {
	chunk    int
	deadline time.Time
	live     bool
}

// refModel is the reference state machine.
type refModel struct {
	cfg     Config
	backoff func(chunk, attempt int) time.Duration
	chunks  []*refChunk
	leases  map[string]*refLease
	order   []string // lease ids in grant order
	done    map[int]bool
	settled bool
	err     error
	// poisonable lists every chunk poisoned while settling in one expiry
	// sweep: the manager sweeps leases in map order, so any of them may
	// be the one it settles with.
	poisonable []int
}

func newRefModel(cfg Config, backoff func(int, int) time.Duration) *refModel {
	r := &refModel{cfg: cfg, backoff: backoff, leases: map[string]*refLease{}, done: map[int]bool{}}
	for start := 0; start < len(cfg.Cells); start += cfg.ChunkSize {
		end := min(start+cfg.ChunkSize, len(cfg.Cells))
		r.chunks = append(r.chunks, &refChunk{cells: cfg.Cells[start:end]})
	}
	r.settled = len(r.chunks) == 0
	return r
}

func (r *refModel) settle(err error) {
	if !r.settled {
		r.settled, r.err = true, err
	}
}

func (r *refModel) poison(id int) *PoisonError {
	c := r.chunks[id]
	c.state = statePending
	pe := &PoisonError{Chunk: id, Cells: c.cells, Attempts: c.attempts, LastErr: c.lastErr}
	r.settle(pe)
	return pe
}

func (r *refModel) requeue(id int, at time.Time) {
	c := r.chunks[id]
	c.state = statePending
	c.notBefore = at.Add(r.backoff(id, c.attempts))
}

func (r *refModel) finish(id int) {
	c := r.chunks[id]
	if c.state == stateDone {
		return
	}
	if c.owner != "" {
		r.leases[c.owner].live = false
		c.owner = ""
	}
	c.state = stateDone
	for _, o := range r.chunks {
		if o.state != stateDone {
			return
		}
	}
	r.settle(nil)
}

func (r *refModel) allDone(id int) bool {
	for _, idx := range r.chunks[id].cells {
		if !r.done[idx] {
			return false
		}
	}
	return true
}

func (r *refModel) expire(now time.Time) int {
	n := 0
	wasSettled := r.settled
	r.poisonable = nil
	for _, id := range r.order {
		l := r.leases[id]
		if !l.live || now.Before(l.deadline) {
			continue
		}
		l.live = false
		n++
		c := r.chunks[l.chunk]
		if c.state != stateLeased {
			continue
		}
		c.owner = ""
		if c.attempts >= r.cfg.MaxAttempts {
			r.poison(l.chunk)
			r.poisonable = append(r.poisonable, l.chunk)
			continue
		}
		r.requeue(l.chunk, l.deadline)
	}
	if wasSettled {
		r.poisonable = nil
	}
	return n
}

func (r *refModel) lease(now time.Time) (string, int, error) {
	r.expire(now)
	if r.settled {
		return "", 0, ErrFinished
	}
	for i, c := range r.chunks {
		if c.state != statePending || now.Before(c.notBefore) {
			continue
		}
		id := fmt.Sprintf("L%06d", len(r.order)+1)
		c.state, c.owner = stateLeased, id
		c.attempts++
		r.leases[id] = &refLease{chunk: i, deadline: now.Add(r.cfg.TTL), live: true}
		r.order = append(r.order, id)
		return id, i, nil
	}
	return "", 0, ErrNoWork
}

func (r *refModel) heartbeat(id string, now time.Time) (time.Time, error) {
	r.expire(now)
	l, ok := r.leases[id]
	if !ok || !l.live {
		return time.Time{}, ErrLeaseGone
	}
	l.deadline = now.Add(r.cfg.TTL)
	return l.deadline, nil
}

// errForeign stands for Complete's protocol-violation rejection.
var errForeign = errors.New("foreign cell")

func (r *refModel) complete(id string, cells, failed []int, errText string, now time.Time) (Accept, error) {
	r.expire(now)
	l, ok := r.leases[id]
	if !ok {
		return Accept{Zombie: true}, ErrLeaseGone
	}
	c := r.chunks[l.chunk]
	for _, idx := range slices.Concat(cells, failed) {
		if !slices.Contains(c.cells, idx) {
			return Accept{Zombie: !l.live}, errForeign
		}
	}
	acc := Accept{Zombie: !l.live}
	l.live = false
	owner := c.owner == id
	if owner {
		c.owner = ""
	}
	for i, idx := range cells {
		if slices.Contains(cells[:i], idx) {
			continue
		}
		if r.done[idx] {
			acc.Dropped++
			continue
		}
		r.done[idx] = true
		acc.Cells = append(acc.Cells, idx)
	}
	switch {
	case c.state == stateDone:
	case r.allDone(l.chunk):
		r.finish(l.chunk)
	case r.settled:
	case len(failed) > 0:
		c.lastErr = errText
		return acc, r.poison(l.chunk)
	case !owner:
	case c.attempts >= r.cfg.MaxAttempts:
		c.lastErr = fmt.Sprintf("partial completion (%d of %d cells)", len(acc.Cells)+acc.Dropped, len(c.cells))
		return acc, r.poison(l.chunk)
	default:
		r.requeue(l.chunk, now)
	}
	return acc, nil
}

func (r *refModel) markDone(cells []int) []int {
	var fresh []int
	for _, idx := range cells {
		pos := slices.Index(r.cfg.Cells, idx)
		if pos < 0 || r.done[idx] {
			continue
		}
		r.done[idx] = true
		fresh = append(fresh, idx)
		if id := pos / r.cfg.ChunkSize; r.chunks[id].state != stateDone && r.allDone(id) {
			r.finish(id)
		}
	}
	return fresh
}

// sameErr compares a manager error with the model's, by kind.
func sameErr(got, want error) bool {
	var gp, wp *PoisonError
	switch {
	case want == nil || got == nil:
		return got == want
	case errors.As(want, &wp):
		return errors.As(got, &gp) && gp.Chunk == wp.Chunk && gp.Attempts == wp.Attempts &&
			gp.LastErr == wp.LastErr && slices.Equal(gp.Cells, wp.Cells)
	case want == errForeign:
		return !errors.Is(got, ErrLeaseGone) && !errors.As(got, &gp)
	default:
		return errors.Is(got, want)
	}
}

// modelSeeds are the fixed seeds TestManagerMatchesModel replays; a
// failure names its seed and step, so it reruns identically.
var modelSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
	101, 202, 303, 404, 505, 606, 707, 808, 909, 1000}

func TestManagerMatchesModel(t *testing.T) {
	for _, seed := range modelSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runModel(t, seed) })
	}
}

func runModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clk := newClock()
	n := 1 + rng.Intn(12)
	cells := make([]int, n)
	for i := range cells {
		cells[i] = 3*i + 1 // sparse indices, as after a journal resume
	}
	cfg := Config{
		Cells:       cells,
		ChunkSize:   1 + rng.Intn(4),
		TTL:         time.Second,
		MaxAttempts: 1 + rng.Intn(4),
		BackoffBase: 100 * time.Millisecond,
		BackoffCap:  400 * time.Millisecond,
		Seed:        uint64(seed),
		Now:         clk.now,
	}
	m := NewManager(cfg)
	ref := newRefModel(cfg, m.backoff)
	accepted := map[int]int{}
	stopCause := errors.New("stopped")

	pickLease := func() string {
		if len(ref.order) == 0 || rng.Intn(20) == 0 {
			return "L999999"
		}
		return ref.order[rng.Intn(len(ref.order))]
	}
	for step := 0; step < 400; step++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
		}
		switch op := rng.Intn(100); {
		case op < 25:
			l, err := m.Lease("w")
			id, chunk, werr := ref.lease(clk.now())
			if !sameErr(err, werr) {
				fail("Lease err = %v, model %v", err, werr)
			}
			if err == nil && (l.ID != id || l.Chunk != chunk || !slices.Equal(l.Cells, ref.chunks[chunk].cells)) {
				fail("Lease = %+v, model %s chunk %d", l, id, chunk)
			}
		case op < 35:
			id := pickLease()
			d, err := m.Heartbeat(id)
			wd, werr := ref.heartbeat(id, clk.now())
			if !sameErr(err, werr) || !d.Equal(wd) {
				fail("Heartbeat(%s) = %v, %v; model %v, %v", id, d, err, wd, werr)
			}
		case op < 65:
			id := pickLease()
			var report []int
			if l, ok := ref.leases[id]; ok {
				for _, idx := range ref.chunks[l.chunk].cells {
					if rng.Intn(10) < 8 {
						report = append(report, idx)
					}
				}
				if len(report) > 0 && rng.Intn(10) == 0 {
					report = append(report, report[0]) // a duplicated cell
				}
			}
			if rng.Intn(20) == 0 {
				report = append(report, 3*n+rng.Intn(3)) // a foreign cell
			}
			var failed []int
			errText := ""
			if rng.Intn(8) == 0 {
				failed = []int{cells[rng.Intn(n)]} // in the chunk or foreign to it
				errText = fmt.Sprintf("boom %d", step)
			}
			acc, err := m.Complete(id, report, failed, errText)
			wacc, werr := ref.complete(id, report, failed, errText, clk.now())
			if !sameErr(err, werr) {
				fail("Complete(%s, %v, %v) err = %v, model %v", id, report, failed, err, werr)
			}
			if !slices.Equal(acc.Cells, wacc.Cells) || acc.Dropped != wacc.Dropped || acc.Zombie != wacc.Zombie {
				fail("Complete(%s, %v, %v) = %+v, model %+v", id, report, failed, acc, wacc)
			}
			for _, idx := range acc.Cells {
				if accepted[idx]++; accepted[idx] > 1 {
					fail("cell %d accepted twice", idx)
				}
			}
		case op < 75:
			if got, want := m.Expire(clk.now()), ref.expire(clk.now()); got != want {
				fail("Expire = %d, model %d", got, want)
			}
		case op < 80:
			var some []int
			for _, idx := range cells {
				if rng.Intn(4) == 0 {
					some = append(some, idx)
				}
			}
			fresh := m.MarkDone(append(some, -5)) // plus an unknown index
			if want := ref.markDone(some); !slices.Equal(fresh, want) {
				fail("MarkDone(%v) = %v, model %v", some, fresh, want)
			}
			for _, idx := range fresh {
				accepted[idx]++ // completed outside a report
			}
		case op < 81:
			m.Stop(stopCause)
			ref.settle(stopCause)
		default:
			clk.advance(time.Duration(rng.Int63n(int64(2 * cfg.TTL))))
		}

		select {
		case <-m.Finished():
			if !ref.settled {
				fail("Finished closed but the model has not settled (done %d/%d)", len(ref.done), n)
			}
		default:
			if ref.settled {
				fail("model settled (err %v) but Finished is open", ref.err)
			}
		}
		if ref.settled {
			got := m.Err()
			var pe *PoisonError
			if len(ref.poisonable) > 1 && errors.As(got, &pe) && slices.Contains(ref.poisonable, pe.Chunk) {
				// Several chunks poisoned in one sweep; adopt the one the
				// manager met first.
				ref.err = got
				ref.poisonable = nil
			}
			if !sameErr(got, ref.err) {
				fail("Err = %v, model %v", got, ref.err)
			}
			if ref.err == nil && len(ref.done) != n {
				fail("finished cleanly with %d of %d cells done", len(ref.done), n)
			}
		}
		snap := m.Snapshot()
		leased, doneChunks := 0, 0
		for _, c := range ref.chunks {
			switch c.state {
			case stateLeased:
				leased++
			case stateDone:
				doneChunks++
			}
		}
		if snap.DoneCells != len(ref.done) || snap.DoneChunks != doneChunks || snap.LeasedChunks != leased {
			fail("Snapshot = %+v, model %d cells / %d chunks done, %d leased", snap, len(ref.done), doneChunks, leased)
		}
		for idx, k := range accepted {
			if k > 1 {
				fail("cell %d completed %d times", idx, k)
			}
		}
	}
	if ref.settled && ref.err == nil {
		for _, idx := range cells {
			if accepted[idx] != 1 {
				t.Fatalf("seed %d: finished cleanly but cell %d completed %d times", seed, idx, accepted[idx])
			}
		}
	}
}
