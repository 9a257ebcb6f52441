package service_test

// Journals written before the serial engine was retired carry v1 keys
// ("sweep|...|sharded=<bool>|faults=..."). A sharded=true journal holds
// keyed-engine results and must keep resuming; a sharded=false one holds
// serial-engine results and must be refused with a diagnosis, both by
// Grid.OpenJournal (cmd/sweep -resume) and by a restarted daemon.

import (
	"bytes"
	"context"
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

// v1Key rewrites a current journal key into the form a release with two
// slot disciplines wrote for the same grid.
func v1Key(t *testing.T, key string, sharded bool) string {
	t.Helper()
	k, ok := strings.CutPrefix(key, "sweep/v2|")
	i := strings.LastIndex(k, "|faults=")
	if !ok || i < 0 || strings.Contains(k, "sharded=") {
		t.Fatalf("unexpected journal key format %q", key)
	}
	return "sweep|" + k[:i] + fmt.Sprintf("|sharded=%v", sharded) + k[i:]
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

	// A keyed (sharded=true) v1 journal resumes with its record intact.
	j, err := grid.OpenJournal(write(v1Key(t, grid.JournalKey(), true)), true)
	if err != nil {
		t.Fatalf("resuming a sharded=true v1 journal: %v", err)
	}
	if _, ok := j.Done(0); !ok || j.Completed() != 1 {
		t.Fatalf("v1 journal resumed with %d records, want cell 0", j.Completed())
	}
	j.Close()

	// A serial (sharded=false) v1 journal is refused with a diagnosis.
	_, err = grid.OpenJournal(write(v1Key(t, grid.JournalKey(), false)), true)
	if !errors.Is(err, service.ErrSerialJournal) || !strings.Contains(err.Error(), "serial engine") {
		t.Fatalf("resuming a sharded=false v1 journal: err = %v, want ErrSerialJournal", err)
	}

	// Another grid's v1 journal is a plain key mismatch.
	other := tinySpec()
	other.Seeds = 3
	og, err := service.Compile(other)
	if err != nil {
		t.Fatal(err)
	}
	_, err = grid.OpenJournal(write(v1Key(t, og.JournalKey(), false)), true)
	if err == nil || errors.Is(err, service.ErrSerialJournal) {
		t.Fatalf("another grid's serial journal: err = %v, want a key mismatch", err)
	}
}

// TestServiceRestartV1Journals restarts a daemon over an unfinished job
// whose journal carries a v1 key: a sharded=true journal resumes to the
// reference CSV, a sharded=false one fails the job with the diagnosis.
func TestServiceRestartV1Journals(t *testing.T) {
	want := referenceCSV(t, tinySpec())
	for _, sharded := range []bool{true, false} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
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
			rekeyJournal(t, filepath.Join(jobDir, "journal.jsonl"), v1Key(t, grid.JournalKey(), sharded), 1)
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
			st := waitState(t, s2, j.ID, 60*time.Second)
			if !sharded {
				if st != service.StateFailed || !strings.Contains(j2.Status().Error, "serial engine") {
					t.Fatalf("serial v1 journal: job = %s (%q), want failed with the diagnosis", st, j2.Status().Error)
				}
				return
			}
			if st != service.StateDone {
				t.Fatalf("keyed v1 journal: job = %s (%s)", st, j2.Status().Error)
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
