// Package telemetry is the repository's runtime observability layer: a
// zero-dependency, allocation-free registry of named counters, gauges and
// timers that the sim engine, the batch runner, and the fault machinery
// update while they work, plus an opt-in debug HTTP server (server.go)
// exposing an expvar-compatible JSON snapshot and net/http/pprof.
//
// Design constraints, in order:
//
//   - Disabled must be free. Instruments are reached through pointers the
//     instrumented code resolves once at setup; with no registry attached
//     every hot-path site costs exactly one predictable nil-check branch.
//   - Updates are allocation-free. Counter.Add, Gauge.Set and
//     Timer.Observe are single atomic operations on pre-allocated cells —
//     safe on any goroutine, never taking a lock, never allocating.
//   - Snapshots are cheap and safe anywhere. Snapshot copies every value
//     with atomic loads while updates continue; WriteTable renders the
//     copy with sorted keys, so equal states render identically.
//
// Instrument names are dot-separated paths ("sim.slots.visited",
// "runner.jobs.done"). The full catalog of names used by this repository,
// with units and the code path that increments each, is in
// docs/OBSERVABILITY.md.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is a programming error but is not
// checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-written instantaneous value (queue depth, ETA seconds).
// The zero value is ready to use; all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer accumulates durations: how many intervals were observed and their
// total length. The zero value is ready to use; Observe is two atomic adds
// and safe for concurrent use. A Timer appears in snapshots as two keys,
// "<name>.count" and "<name>.total_ns".
type Timer struct {
	n  atomic.Int64
	ns atomic.Int64
}

// Observe records one interval.
func (t *Timer) Observe(d time.Duration) {
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// Count returns how many intervals have been observed.
func (t *Timer) Count() int64 { return t.n.Load() }

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.ns.Load()) }

// Registry is a namespace of instruments. Instruments are created on first
// lookup and live for the registry's lifetime, so instrumented code
// resolves its pointers once at setup and updates them lock-free
// afterwards. A name identifies exactly one instrument kind; asking for an
// existing name as a different kind panics (a wiring bug, caught loudly).
//
// The zero Registry is not usable; call New.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// kindOf reports which map already owns name, for collision diagnostics.
// Callers must hold at least the read lock.
func (r *Registry) kindOf(name string) string {
	if _, ok := r.counters[name]; ok {
		return "counter"
	}
	if _, ok := r.gauges[name]; ok {
		return "gauge"
	}
	if _, ok := r.timers[name]; ok {
		return "timer"
	}
	return ""
}

// Counter returns the counter registered under name, creating it on first
// use. It panics if name is already a gauge or timer.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	if k := r.kindOf(name); k != "" {
		panic(fmt.Sprintf("telemetry: %q already registered as a %s", name, k))
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// It panics if name is already a counter or timer.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if k := r.kindOf(name); k != "" {
		panic(fmt.Sprintf("telemetry: %q already registered as a %s", name, k))
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Timer returns the timer registered under name, creating it on first use.
// It panics if name is already a counter or gauge.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t, ok := r.timers[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.timers[name]; ok {
		return t
	}
	if k := r.kindOf(name); k != "" {
		panic(fmt.Sprintf("telemetry: %q already registered as a %s", name, k))
	}
	t = &Timer{}
	r.timers[name] = t
	return t
}

// Snapshot is a point-in-time copy of every instrument's value, keyed by
// instrument name. Timers contribute two keys: "<name>.count" and
// "<name>.total_ns". Values are read with atomic loads while updates
// continue, so a snapshot taken mid-update is internally consistent per
// key but keys are not mutually synchronized — fine for monitoring, which
// is the intended use.
type Snapshot map[string]int64

// Snapshot copies every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := make(Snapshot, len(r.counters)+len(r.gauges)+2*len(r.timers))
	for name, c := range r.counters {
		s[name] = c.Value()
	}
	for name, g := range r.gauges {
		s[name] = g.Value()
	}
	for name, t := range r.timers {
		s[name+".count"] = t.Count()
		s[name+".total_ns"] = int64(t.Total())
	}
	return s
}

// Keys returns the snapshot's keys, sorted.
func (s Snapshot) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteTable renders the snapshot as an aligned two-column text table with
// sorted keys — the CLIs' -stats output.
func (s Snapshot) WriteTable(w io.Writer) error {
	keys := s.Keys()
	width := 0
	for _, k := range keys {
		if len(k) > width {
			width = len(k)
		}
	}
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%-*s  %d\n", width, k, s[k]); err != nil {
			return err
		}
	}
	return nil
}
