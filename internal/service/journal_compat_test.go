package service_test

// Journals written by older releases carry older key formats: v2
// ("sweep/v2|...|compact=<bool>|faults=...") named the time path, v1
// ("sweep|...|compact=<bool>|sharded=<bool>|faults=...") also the slot
// discipline. Both time paths computed identical results, and so did the
// keyed (sharded=true) discipline, so those journals must keep resuming; a
// sharded=false one holds serial-engine results and must be refused with a
// diagnosis, both by Grid.OpenJournal (cmd/sweep -resume) and by a
// restarted daemon. A persisted spec naming a protocol this release no
// longer has fails its job on restart without holding up the queue.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ldcflood/internal/runner"
	"ldcflood/internal/service"
)

// oldKey rewrites a current journal key into the form an older release
// wrote for the same grid: a v2 key with the given compact= value, or —
// with sharded non-nil — a v1 key that also names the slot discipline.
func oldKey(t *testing.T, key string, compact bool, sharded *bool) string {
	t.Helper()
	k, ok := strings.CutPrefix(key, "sweep/v3|")
	i := strings.LastIndex(k, "|faults=")
	if !ok || i < 0 || strings.Contains(k, "compact=") {
		t.Fatalf("unexpected journal key format %q", key)
	}
	if sharded == nil {
		return "sweep/v2|" + k[:i] + fmt.Sprintf("|compact=%v", compact) + k[i:]
	}
	return "sweep|" + k[:i] + fmt.Sprintf("|compact=%v|sharded=%v", compact, *sharded) + k[i:]
}

// rekeyJournal rewrites the header key of the journal at path and keeps
// only its first `records` records.
func rekeyJournal(t *testing.T, path, key string, records int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 1+records {
		t.Fatalf("journal has %d lines, want header + %d records", len(lines), records)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "{\"journal\":\"ldcflood-runner\",\"v\":1,\"key\":%q}\n", key)
	for _, l := range lines[1 : 1+records] {
		out.Write(l)
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenJournalV1Keys(t *testing.T) {
	grid, err := service.Compile(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := runner.Run(context.Background(), grid.Jobs[:1], grid.Options())
	res, err := rs.Sims()
	if err != nil {
		t.Fatal(err)
	}
	write := func(key string) string {
		path := filepath.Join(t.TempDir(), "sweep.journal")
		j, err := runner.OpenJournal(path, key, false)
		if err != nil {
			t.Fatal(err)
		}
		j.Record(0, res[0])
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	yes, no := true, false
	for _, tc := range []struct {
		name    string
		compact bool
		sharded *bool
	}{
		{"v2 compact=false", false, nil},
		{"v2 compact=true", true, nil},
		{"v1 compact=true sharded=true", true, &yes},
		{"v1 compact=false sharded=true", false, &yes},
	} {
		j, err := grid.OpenJournal(write(oldKey(t, grid.JournalKey(), tc.compact, tc.sharded)), true)
		if err != nil {
			t.Fatalf("resuming a %s journal: %v", tc.name, err)
		}
		if _, ok := j.Done(0); !ok || j.Completed() != 1 {
			t.Fatalf("%s journal resumed with %d records, want cell 0", tc.name, j.Completed())
		}
		j.Close()
	}

	// A serial (sharded=false) v1 journal is refused with a diagnosis,
	// whatever its compact= value.
	for _, compact := range []bool{false, true} {
		_, err = grid.OpenJournal(write(oldKey(t, grid.JournalKey(), compact, &no)), true)
		if !errors.Is(err, service.ErrSerialJournal) || !strings.Contains(err.Error(), "serial engine") {
			t.Fatalf("resuming a sharded=false compact=%v v1 journal: err = %v, want ErrSerialJournal", compact, err)
		}
	}

	// Another grid's v1 journal is a plain key mismatch.
	other := tinySpec()
	other.Seeds = 3
	og, err := service.Compile(other)
	if err != nil {
		t.Fatal(err)
	}
	_, err = grid.OpenJournal(write(oldKey(t, og.JournalKey(), false, &no)), true)
	if err == nil || errors.Is(err, service.ErrSerialJournal) {
		t.Fatalf("another grid's serial journal: err = %v, want a key mismatch", err)
	}
}

// TestServiceRestartV1Journals restarts a daemon over an unfinished job
// an older release left behind: a v1 sharded=true journal resumes to the
// reference CSV, a sharded=false one fails the job with the diagnosis, and
// a v2 compact=true journal whose persisted spec still carries the retired
// "compact": true field reloads and resumes.
func TestServiceRestartV1Journals(t *testing.T) {
	want := referenceCSV(t, tinySpec())
	yes, no := true, false
	for _, tc := range []struct {
		name    string
		compact bool
		sharded *bool
	}{
		{"sharded=true", false, &yes},
		{"sharded=false", false, &no},
		{"v2 compact spec", true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			// Turn the finished job back into an unfinished one an older
			// release left behind: one journaled cell, no terminal status.
			jobDir := filepath.Join(dir, j.ID)
			rekeyJournal(t, filepath.Join(jobDir, "journal.jsonl"), oldKey(t, grid.JournalKey(), tc.compact, tc.sharded), 1)
			for _, f := range []string{"status.json", "result.csv"} {
				if err := os.Remove(filepath.Join(jobDir, f)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.compact {
				editSpec(t, filepath.Join(jobDir, "spec.json"), func(spec map[string]any) { spec["compact"] = true })
			}

			s2 := newService(t, dir, service.Options{})
			j2, ok := s2.Job(j.ID)
			if !ok {
				t.Fatalf("job %s not resurrected", j.ID)
			}
			st := waitState(t, s2, j.ID, 60*time.Second)
			if tc.sharded != nil && !*tc.sharded {
				if st != service.StateFailed || !strings.Contains(j2.Status().Error, "serial engine") {
					t.Fatalf("serial v1 journal: job = %s (%q), want failed with the diagnosis", st, j2.Status().Error)
				}
				return
			}
			if st != service.StateDone {
				t.Fatalf("%s journal: job = %s (%s)", tc.name, st, j2.Status().Error)
			}
			if r := j2.Status().Resumed; r != 1 {
				t.Fatalf("Resumed = %d, want the 1 journaled cell", r)
			}
			got, err := os.ReadFile(filepath.Join(jobDir, "result.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed CSV differs from the reference:\n%s\nvs\n%s", got, want)
			}
		})
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
