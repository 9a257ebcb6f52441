package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeTimerBasics(t *testing.T) {
	r := New()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("a.gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	tm := r.Timer("a.timer")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	if tm.Count() != 2 || tm.Total() != 40*time.Millisecond {
		t.Fatalf("timer = (%d, %v)", tm.Count(), tm.Total())
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := New()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter(x) returned two different cells")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Fatal("Gauge(y) returned two different cells")
	}
	if r.Timer("z") != r.Timer("z") {
		t.Fatal("Timer(z) returned two different cells")
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := New()
	r.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("Gauge(dup) after Counter(dup) did not panic")
		}
	}()
	r.Gauge("dup")
}

func TestSnapshot(t *testing.T) {
	r := New()
	r.Counter("sim.slots").Add(100)
	r.Gauge("runner.queue").Set(5)
	r.Timer("runner.job").Observe(2 * time.Second)
	snap := r.Snapshot()
	want := Snapshot{
		"sim.slots":           100,
		"runner.queue":        5,
		"runner.job.count":    1,
		"runner.job.total_ns": int64(2 * time.Second),
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d keys, want %d: %v", len(snap), len(want), snap)
	}
	for k, v := range want {
		if snap[k] != v {
			t.Fatalf("snapshot[%q] = %d, want %d", k, snap[k], v)
		}
	}
}

func TestWriteTable(t *testing.T) {
	r := New()
	r.Counter("bb").Add(2)
	r.Counter("a").Add(1)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "a ") || !strings.HasPrefix(lines[1], "bb") {
		t.Fatalf("table not sorted/aligned:\n%s", buf.String())
	}
}

// TestConcurrentUpdatesAndSnapshots drives instrument creation, updates,
// and snapshot reads from many goroutines at once; under -race this
// certifies the registry's concurrency contract (the runner updates
// telemetry from every worker while the debug server snapshots it).
func TestConcurrentUpdatesAndSnapshots(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared.count")
			g := r.Gauge("shared.gauge")
			tm := r.Timer("shared.timer")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				tm.Observe(time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	// Concurrent readers, including table rendering.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var buf bytes.Buffer
				_ = r.Snapshot().WriteTable(&buf)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared.count").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Timer("shared.timer").Count(); got != workers*perWorker {
		t.Fatalf("timer count = %d, want %d", got, workers*perWorker)
	}
}
