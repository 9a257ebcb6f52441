// Package service turns the batch simulation stack into a long-running
// job API: it accepts sweep specifications as JSON, validates them
// against the same configuration surface cmd/sweep exposes as flags,
// runs each job as leasable chunks that the daemon and any floodworker
// pull (with runner.SplitParallelism dividing the machine between batch-
// and shard-level workers), streams progress over server-sent events, and
// persists every job to a journal-backed directory so a killed daemon
// resumes byte-identically on restart.
//
// The package splits into four layers:
//
//   - Spec/Grid (spec.go): the declarative sweep description and its
//     compiled form — cells, fully-specified sim.Configs, the journal
//     key, and the CSV renderer. cmd/sweep compiles its flags through
//     the same code path, which is what makes a job submitted over HTTP
//     byte-identical to the same sweep run from the command line.
//   - Service/Job (service.go, job.go): the bounded FIFO job queue, the
//     scheduler goroutine, per-job state machines with telemetry
//     registries and subscriber fan-out, and the on-disk layout behind
//     crash-resume.
//   - Execution (exec.go): every job as chunks arbitrated by
//     internal/lease, the daemon's local executor, and RunChunk, the
//     chunk executor cmd/floodworker shares.
//   - Handler (http.go): the stdlib-HTTP surface — POST /v1/jobs,
//     status, SSE events, result artifacts, DELETE-to-cancel, the lease
//     endpoints, and the /debug/vars + pprof endpoints
//     (telemetry.Server's private-mux pattern).
//
// cmd/floodd is the daemon front-end; docs/SERVICE.md is the API
// reference and operations guide.
package service

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"time"

	"ldcflood/internal/fault"
	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/runner"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/stats"
	"ldcflood/internal/topology"
)

// Duration is a time.Duration that marshals to and from JSON as a Go
// duration string ("1.5s", "200ms"); a bare JSON number is accepted as
// nanoseconds for compatibility with time.Duration's own encoding.
type Duration time.Duration

// MarshalJSON renders the duration as a quoted Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a quoted duration string or a number of
// nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("service: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// Spec is a sweep specification: the protocol × duty × seed grid plus
// every knob that shapes the simulation or its execution. It is the JSON
// body of POST /v1/jobs and the struct cmd/sweep's flags compile into —
// one surface, validated in one place (Compile).
//
// When submitted to a Service, zero fields take the same defaults as
// cmd/sweep's flags: protocols opt,dbao,of; duties 0.02,0.05,0.10,0.20;
// 1 seed; m=100; coverage 0.99; toposeed 1 (Compile itself is strict —
// cmd/sweep passes every field explicitly). The execution knobs
// (Parallel, Workers, Timeout, Retries, Backoff) never change simulation
// output — only wall-clock behavior — and are excluded from the journal
// key.
type Spec struct {
	// Protocols names the flood protocols to sweep (see flood.New).
	Protocols []string `json:"protocols,omitempty"`
	// Duties is the duty-cycle axis; every value must lie in (0,1].
	Duties []float64 `json:"duties,omitempty"`
	// Seeds is the number of per-cell seeds (0..Seeds-1).
	Seeds int `json:"seeds,omitempty"`
	// M is the number of packets per flood.
	M int `json:"m,omitempty"`
	// Coverage is the delivery-ratio target ending each run.
	Coverage float64 `json:"coverage,omitempty"`
	// TopoSeed seeds the synthetic GreenOrbs topology.
	TopoSeed uint64 `json:"toposeed,omitempty"`
	// SyncErr is the local-synchronization miss probability.
	SyncErr float64 `json:"syncerr,omitempty"`
	// Faults is an inline JSON fault schedule (the same document
	// cmd/sweep's -faults flag reads from a file; see internal/fault and
	// docs/FAULTS.md). Empty means a clean sweep.
	Faults json.RawMessage `json:"faults,omitempty"`
	// Compact opts into the compact-time fast path; dynamic fault
	// schedules fall back per-run exactly as with cmd/sweep -compact.
	Compact bool `json:"compact,omitempty"`
	// Workers selects the engine discipline per run: 0 = historical
	// serial engine, >= 1 = sharded deterministic mode (results identical
	// for every count), -1 = auto-split the machine between batch and
	// shard workers via runner.SplitParallelism.
	Workers int `json:"workers,omitempty"`
	// Parallel bounds the batch runner's worker pool (0 = GOMAXPROCS).
	// The output is byte-identical for every value.
	Parallel int `json:"parallel,omitempty"`
	// Timeout is the per-run wall-clock budget (0 = none); an overrunning
	// cell fails the job with a typed runner timeout error.
	Timeout Duration `json:"timeout,omitempty"`
	// Retries re-runs a retryably failing cell (timeout, panic) up to
	// this many times.
	Retries int `json:"retries,omitempty"`
	// Backoff is the base delay before the first retry, doubling per
	// attempt.
	Backoff Duration `json:"backoff,omitempty"`
}

// withDefaults returns the spec with cmd/sweep's flag defaults filled
// into zero axis fields.
func (s Spec) withDefaults() Spec {
	if len(s.Protocols) == 0 {
		s.Protocols = []string{"opt", "dbao", "of"}
	}
	if len(s.Duties) == 0 {
		s.Duties = []float64{0.02, 0.05, 0.10, 0.20}
	}
	if s.Seeds == 0 {
		s.Seeds = 1
	}
	if s.M == 0 {
		s.M = 100
	}
	if s.Coverage == 0 {
		s.Coverage = 0.99
	}
	if s.TopoSeed == 0 {
		s.TopoSeed = 1
	}
	return s
}

// Cell is one point of the sweep grid: a (protocol, duty, seed) triple.
type Cell struct {
	// Protocol is the flood protocol name.
	Protocol string
	// Duty is the duty cycle.
	Duty float64
	// Seed is the per-cell simulation seed.
	Seed uint64
}

// String names the cell the way sweep error messages always have:
// "opt at duty 0.02 seed 3".
func (c Cell) String() string {
	return fmt.Sprintf("%s at duty %v seed %d", c.Protocol, c.Duty, c.Seed)
}

// Grid is a compiled Spec: the validated cell list, one fully-specified
// sim.Config per cell, and the resolved parallelism split. Compile is the
// only constructor.
type Grid struct {
	// Spec is the (defaulted) specification the grid was compiled from.
	Spec Spec
	// Cells lists the grid points in sweep order (protocol-major,
	// duty, then seed); Cells[i] produced Jobs[i].
	Cells []Cell
	// Jobs holds one fully-specified engine config per cell, ready for
	// runner.Run. Configs share the topology graph and fault schedule.
	Jobs []sim.Config
	// BatchWorkers is the resolved runner.Options.Workers value.
	BatchWorkers int
	// ShardWorkers is the resolved per-run sim.Config.Workers value.
	ShardWorkers int

	faultJSON []byte
}

// Compile validates spec (protocols, duty ranges, grid arithmetic, the
// inline fault schedule against the topology) and builds the runnable
// grid. Validation is strict — zero axes are rejected, not defaulted;
// the Service applies Spec's documented defaults at submission, before
// compiling. Workers == -1 resolves the batch/shard split with
// runner.SplitParallelism; the split never changes output, only
// wall-clock time.
func Compile(spec Spec) (*Grid, error) {
	if len(spec.Protocols) == 0 {
		return nil, fmt.Errorf("need at least one protocol")
	}
	if len(spec.Duties) == 0 {
		return nil, fmt.Errorf("need at least one duty")
	}
	// Trim into a fresh slice: the caller's Spec (and anything aliasing
	// its backing array, like a served job status) must stay untouched.
	protocols := make([]string, len(spec.Protocols))
	for i, p := range spec.Protocols {
		protocols[i] = strings.TrimSpace(p)
		if _, err := flood.New(protocols[i]); err != nil {
			return nil, err
		}
	}
	spec.Protocols = protocols
	for _, v := range spec.Duties {
		if v <= 0 || v > 1 {
			return nil, fmt.Errorf("duty %v outside (0,1]", v)
		}
	}
	if spec.Seeds < 1 {
		return nil, fmt.Errorf("need at least one seed")
	}
	if spec.M < 1 {
		return nil, fmt.Errorf("need m >= 1")
	}
	if spec.Workers < -1 {
		return nil, fmt.Errorf("workers %d outside -1..n", spec.Workers)
	}
	if spec.Timeout < 0 || spec.Backoff < 0 {
		return nil, fmt.Errorf("negative duration in spec")
	}
	if spec.Retries < 0 {
		return nil, fmt.Errorf("negative retries")
	}

	g := topology.GreenOrbs(spec.TopoSeed)
	var fs *fault.Schedule
	var faultJSON []byte
	if len(spec.Faults) > 0 {
		var err error
		if fs, err = fault.Parse(spec.Faults); err != nil {
			return nil, err
		}
		if err := fs.Validate(g); err != nil {
			return nil, err
		}
		// The journal key hashes the schedule's compact form, so layout
		// alone (the indented copy a restarted daemon reads back from
		// spec.json, a pretty-printed -faults file) never changes it.
		var buf bytes.Buffer
		if err := json.Compact(&buf, spec.Faults); err != nil {
			return nil, err
		}
		faultJSON = buf.Bytes()
	}

	grid := &Grid{Spec: spec, faultJSON: faultJSON}
	for _, p := range spec.Protocols {
		for _, d := range spec.Duties {
			for s := 0; s < spec.Seeds; s++ {
				grid.Cells = append(grid.Cells, Cell{Protocol: p, Duty: d, Seed: uint64(s)})
			}
		}
	}
	// Resolve the engine discipline before jobs are built: Workers == -1
	// splits the machine budget between batch-level and shard-level
	// parallelism (both layers are deterministic, so the CSV is identical
	// for every split).
	grid.BatchWorkers, grid.ShardWorkers = spec.Parallel, spec.Workers
	if spec.Workers < 0 {
		grid.BatchWorkers, grid.ShardWorkers = runner.SplitParallelism(spec.Parallel, len(grid.Cells))
	}

	grid.Jobs = make([]sim.Config, len(grid.Cells))
	for i, c := range grid.Cells {
		p, err := flood.New(c.Protocol)
		if err != nil {
			return nil, err
		}
		period := schedule.PeriodForDuty(c.Duty)
		grid.Jobs[i] = sim.Config{
			Graph:         g,
			Schedules:     schedule.AssignUniform(g.N(), period, rngutil.New(c.Seed).SubName("schedule")),
			Protocol:      p,
			M:             spec.M,
			Coverage:      spec.Coverage,
			Seed:          c.Seed,
			SyncErrorProb: spec.SyncErr,
			Faults:        fs,
			CompactTime:   spec.Compact,
			Workers:       grid.ShardWorkers,
		}
	}
	return grid, nil
}

// JournalKey identifies the batch a journal belongs to: every parameter
// that changes the simulation output, including the fault spec itself
// (its compact JSON form hashed, so an edited spec invalidates old
// checkpoints while re-indenting it does not) and the engine
// discipline (serial vs sharded — two different, individually
// deterministic RNG streams). The exact shard-worker count is NOT keyed:
// every count >= 1 produces identical results by construction, so a
// journal written at workers=1 resumes cleanly at workers=4. The
// execution knobs (Parallel, Timeout, Retries, Backoff) are excluded for
// the same reason.
func (g *Grid) JournalKey() string {
	h := fnv.New64a()
	h.Write(g.faultJSON)
	duties := make([]string, len(g.Spec.Duties))
	for i, d := range g.Spec.Duties {
		duties[i] = strconv.FormatFloat(d, 'g', -1, 64)
	}
	return fmt.Sprintf("sweep|protocols=%s|duties=%s|seeds=%d|m=%d|coverage=%g|toposeed=%d|syncerr=%g|compact=%v|sharded=%v|faults=%x",
		strings.Join(g.Spec.Protocols, ","), strings.Join(duties, ","),
		g.Spec.Seeds, g.Spec.M, g.Spec.Coverage, g.Spec.TopoSeed, g.Spec.SyncErr,
		g.Spec.Compact, g.ShardWorkers > 0, h.Sum64())
}

// LegacyJournalKey reports whether a stored journal key matches want
// except for pre-canonicalization duty formatting. Older sweep releases
// wrote the duty axis into the key exactly as the user typed it
// ("0.10,0.20"); JournalKey now canonicalizes each value through
// strconv.FormatFloat(d, 'g', -1, 64) ("0.1,0.2"), so a journal written
// before the change can never match even though its records are valid
// results for the very same grid. Callers (cmd/sweep) use this to turn a
// bare key-mismatch error into an actionable migration message instead
// of leaving the user to diff two opaque key strings.
func LegacyJournalKey(stored, want string) bool {
	if stored == want {
		return false
	}
	const marker = "|duties="
	i := strings.Index(stored, marker)
	if i < 0 {
		return false
	}
	start := i + len(marker)
	n := strings.Index(stored[start:], "|")
	if n < 0 {
		return false
	}
	parts := strings.Split(stored[start:start+n], ",")
	canon := make([]string, len(parts))
	for k, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return false
		}
		canon[k] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return stored[:start]+strings.Join(canon, ",")+stored[start+n:] == want
}

// Options returns the runner options the grid's spec asks for (workers,
// per-run timeout, retry policy). Callers attach Journal, Progress and
// Telemetry on top.
func (g *Grid) Options() runner.Options {
	return runner.Options{
		Workers:      g.BatchWorkers,
		Timeout:      time.Duration(g.Spec.Timeout),
		Retries:      g.Spec.Retries,
		RetryBackoff: time.Duration(g.Spec.Backoff),
	}
}

// CSVHeader is the result artifact's column set, shared by cmd/sweep's
// stdout and the service's result endpoint.
var CSVHeader = []string{
	"protocol", "duty", "period", "seed",
	"mean_delay", "p50_delay", "p99_delay",
	"transmissions", "failures", "loss", "collision", "busy", "sync", "jam",
	"overheard", "crashes", "reboots", "total_slots", "completed",
}

// CSVRow formats one finished cell as a CSV record in CSVHeader order.
func CSVRow(c Cell, res *sim.Result) []string {
	delays := stats.NewDigest()
	for _, d := range res.Delay {
		if d >= 0 {
			delays.Add(float64(d))
		}
	}
	p50, p99 := "", ""
	if delays.N() > 0 {
		p50 = fmt.Sprintf("%.1f", delays.Quantile(0.50))
		p99 = fmt.Sprintf("%.1f", delays.Quantile(0.99))
	}
	return []string{
		res.Protocol,
		fmt.Sprintf("%.4f", c.Duty),
		fmt.Sprintf("%d", schedule.PeriodForDuty(c.Duty)),
		fmt.Sprintf("%d", c.Seed),
		fmt.Sprintf("%.1f", res.MeanDelay()),
		p50,
		p99,
		fmt.Sprintf("%d", res.Transmissions),
		fmt.Sprintf("%d", res.Failures()),
		fmt.Sprintf("%d", res.LossFailures),
		fmt.Sprintf("%d", res.CollisionFailures),
		fmt.Sprintf("%d", res.BusyFailures),
		fmt.Sprintf("%d", res.SyncFailures),
		fmt.Sprintf("%d", res.JamFailures),
		fmt.Sprintf("%d", res.Overheard),
		fmt.Sprintf("%d", res.Crashes),
		fmt.Sprintf("%d", res.Reboots),
		fmt.Sprintf("%d", res.TotalSlots),
		fmt.Sprintf("%v", res.Completed),
	}
}

// WriteCSV renders a finished batch as the sweep CSV (header plus one row
// per cell in grid order). rs must be the runner's Results for this
// grid's Jobs. Failures are checked up front — an error naming the first
// failed cell is returned before a single byte is written, so a failed
// sweep never leaves a partial document.
func (g *Grid) WriteCSV(w io.Writer, rs runner.Results) error {
	for i := range rs {
		if rs[i].Err != nil {
			return fmt.Errorf("%s: %w", g.Cells[i], rs[i].Err)
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	for i := range rs {
		if err := cw.Write(CSVRow(g.Cells[i], rs[i].Res)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
