package runner

// Checkpoint/resume for long batches. A Journal is a JSON-lines file: one
// header line identifying the batch, then one record per completed job.
// Attached to Options.Journal, the runner appends every successful result
// as it lands and serves already-journaled jobs without re-simulating, so
// a killed batch resumed against the same journal restarts where it left
// off — and, because sim.Run is deterministic and sim.Result survives a
// JSON round trip losslessly, the resumed batch's final output is
// byte-identical to an uninterrupted run.
//
// The header's key ties a journal to one specific batch (the caller
// encodes whatever defines it: grid parameters, seeds, fault spec, ...).
// Resuming with a different key fails loudly instead of silently mixing
// results from a different sweep.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"ldcflood/internal/sim"
)

// journalMagic identifies the file format in the header line.
const journalMagic = "ldcflood-runner"

// journalHeader is the first line of a journal file.
type journalHeader struct {
	Journal string `json:"journal"`
	V       int    `json:"v"`
	Key     string `json:"key"`
}

// journalRecord is one completed job.
type journalRecord struct {
	Index int         `json:"index"`
	Res   *sim.Result `json:"res"`
}

// Journal checkpoints one batch's completed jobs to a JSON-lines file. Use
// OpenJournal to create or resume one; it is safe for concurrent use by
// the runner's workers.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	done map[int]*sim.Result
	err  error // first write failure, latched
}

// OpenJournal creates (resume=false) or resumes (resume=true) a journal at
// path for the batch identified by key.
//
// With resume=false any existing file is truncated and a fresh header
// written. With resume=true an existing file's header must carry the same
// key — a mismatch means the journal belongs to a different batch and is
// an error — and its records become the completed set; a partial trailing
// line (the run was killed mid-write) is discarded. Resuming a missing or
// empty file starts a fresh journal.
func OpenJournal(path, key string, resume bool) (*Journal, error) {
	j := &Journal{done: make(map[int]*sim.Result)}
	var keep int64
	if resume {
		n, err := j.load(path, key)
		if err != nil {
			return nil, err
		}
		keep = n
	}
	flags := os.O_CREATE | os.O_WRONLY
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: journal: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	if len(j.done) == 0 {
		// Fresh journal (or resumed an empty/missing file): ensure exactly
		// one header line.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: journal: %w", err)
		}
		if err := j.writeLine(journalHeader{Journal: journalMagic, V: 1, Key: key}); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		// Drop a torn trailing line (the previous run was killed mid-write)
		// so the next record starts on a fresh line instead of fusing with
		// the fragment; O_APPEND writes land at the new end of file.
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: journal: %w", err)
		}
	}
	return j, nil
}

// load reads an existing journal's header and records into j.done. It
// returns the byte offset just past the last complete ('\n'-terminated)
// line, which the caller truncates to before appending.
func (j *Journal) load(path, key string) (int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) || (err == nil && len(data) == 0) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("runner: journal: %w", err)
	}
	keep := int64(0)
	for i := len(data) - 1; i >= 0; i-- {
		if data[i] == '\n' {
			keep = int64(i + 1)
			break
		}
	}
	if keep == 0 {
		// No complete line at all: the previous run was killed mid-way
		// through the very first write, leaving a torn header. As long as
		// the fragment is recognizably ours, treat the file as empty — the
		// caller truncates and rewrites a fresh header — instead of failing
		// resume unrecoverably. Anything else is not a journal file.
		if tornHeader(data) {
			return 0, nil
		}
		return 0, fmt.Errorf("runner: journal %s: not a journal file", path)
	}
	lines := splitLines(data)
	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil || hdr.Journal != journalMagic {
		return 0, fmt.Errorf("runner: journal %s: not a journal file", path)
	}
	if hdr.V != 1 {
		return 0, fmt.Errorf("runner: journal %s: unsupported version %d", path, hdr.V)
	}
	if hdr.Key != key {
		return 0, fmt.Errorf("runner: journal %s belongs to a different batch (key %q, want %q)",
			path, hdr.Key, key)
	}
	for _, line := range lines[1:] {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Res == nil {
			// A torn trailing line from a killed run; the job re-runs.
			continue
		}
		j.done[rec.Index] = rec.Res
	}
	return keep, nil
}

// tornHeader reports whether data is a torn prefix of a journal header
// line — i.e. the bytes so far agree with how a header serializes
// ({"journal":"ldcflood-runner",...). The mutual-prefix check keeps the
// guard against clobbering arbitrary non-journal files intact even when
// the crash happened within the first few bytes.
func tornHeader(data []byte) bool {
	sig := []byte(`{"journal":"` + journalMagic + `"`)
	n := len(sig)
	if len(data) < n {
		n = len(data)
	}
	return string(data[:n]) == string(sig[:n])
}

// splitLines splits data on '\n', dropping a trailing empty fragment.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			out = append(out, data[start:i])
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:]) // torn final line, no newline
	}
	return out
}

// writeLine appends one JSON document plus newline and flushes it, so a
// kill between jobs never tears a record.
func (j *Journal) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	return nil
}

// Done returns the journaled result for job i, if present.
func (j *Journal) Done(i int) (*sim.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	res, ok := j.done[i]
	return res, ok
}

// Completed returns how many jobs the journal already holds.
func (j *Journal) Completed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// record appends one successful job. Write failures are latched into Err
// rather than failing the batch: the simulation results are still good,
// only resumability is degraded.
func (j *Journal) record(i int, res *sim.Result) {
	j.Record(i, res)
}

// Record appends one completed job's result, idempotently by index: a
// job already journaled is left untouched and Record reports false. This
// is the write path for callers that land results out of band — the
// distributed lease protocol journals worker completions through it —
// and shares the crash-safety contract with the runner's own appends
// (flushed line-at-a-time; write failures latch into Err instead of
// failing the caller).
func (j *Journal) Record(i int, res *sim.Result) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return false
	}
	if _, ok := j.done[i]; ok {
		return false
	}
	if err := j.writeLine(journalRecord{Index: i, Res: res}); err != nil {
		j.err = err
		return false
	}
	j.done[i] = res
	return true
}

// Err returns the first journal write failure, or nil. Check it after the
// batch: a non-nil value means the journal is incomplete and a future
// --resume would re-run the affected jobs.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.w.Flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
