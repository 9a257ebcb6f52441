// Command sweep runs a protocol × duty-cycle × seed grid of flooding
// simulations and writes one CSV row per run — the batch front-end for
// custom analyses beyond the canned figures.
//
// Usage:
//
//	sweep [-protocols opt,dbao,of] [-duties 0.02,0.05,0.1,0.2] [-seeds 3]
//	      [-m 100] [-coverage 0.99] [-toposeed 1] [-syncerr 0]
//	      [-faults spec.json]
//	      [-journal sweep.journal] [-resume] [-retries 0] [-backoff 1s]
//	      [-out results.csv] [-parallel 0] [-timeout 0] [-progress]
//	      [-trace-dir DIR]
//	      [-debug-addr :8080] [-stats]
//
// The grid executes on the internal/runner batch executor: -parallel
// bounds the worker pool, a failing cell (panic or -timeout overrun)
// reports a typed job error naming the cell, and the CSV is byte-identical
// for every -parallel value.
//
// -progress prints a throttled structured line (jobs done/total, failures,
// slots/sec, ETA) to stderr. -debug-addr serves the live telemetry
// snapshot (expvar-compatible /debug/vars) and net/http/pprof on the given
// address for the duration of the sweep; -stats prints the final counter
// table to stderr. Both observe the simulation without affecting it — the
// CSV stays byte-identical. See docs/OBSERVABILITY.md.
//
// -trace-dir writes one full event trace per cell into the directory
// (created if missing), named <protocol>_duty<duty>_seed<seed>.tracebin,
// in the binary format of docs/TRACE.md; print one with cmd/tracecat.
// Tracing observes the simulation without affecting it: the CSV stays
// byte-identical, and so do the trace bytes for every -parallel value. A
// resumed sweep writes traces only for the cells it runs, leaving the
// files of journaled cells as they are. -trace-dir cannot be combined
// with -retries: a retried cell would append its retry's events to the
// failed attempt's.
//
// -faults applies a JSON fault schedule (see internal/fault) to every
// cell. -journal checkpoints
// each finished run to a JSON-lines file, and -resume replays a prior
// journal so a killed sweep restarts where it left off — the resumed CSV
// is byte-identical to an uninterrupted run. The journal is keyed to the
// full grid definition (including the fault spec), so resuming with
// different parameters fails instead of mixing sweeps. -retries re-runs
// cells that fail retryably (timeout, panic) with exponential -backoff.
//
// Columns: protocol, duty, period, seed, mean_delay, p50_delay, p99_delay,
// transmissions, failures, loss, collision, busy, sync, jam, overheard,
// crashes, reboots, total_slots, completed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ldcflood/internal/runner"
	"ldcflood/internal/service"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/tracebin"
)

func main() {
	var (
		protocols = flag.String("protocols", "opt,dbao,of", "comma-separated protocol names")
		duties    = flag.String("duties", "0.02,0.05,0.10,0.20", "comma-separated duty cycles")
		seeds     = flag.Int("seeds", 1, "number of seeds per cell (0..seeds-1)")
		m         = flag.Int("m", 100, "packets per flood")
		coverage  = flag.Float64("coverage", 0.99, "delivery-ratio target")
		topoSeed  = flag.Uint64("toposeed", 1, "synthetic GreenOrbs topology seed")
		syncErr   = flag.Float64("syncerr", 0, "local-synchronization miss probability")
		faults    = flag.String("faults", "", "JSON fault-schedule file applied to every cell (see internal/fault)")
		journal   = flag.String("journal", "", "checkpoint finished runs to this JSON-lines file")
		resume    = flag.Bool("resume", false, "resume from an existing -journal, skipping already-completed runs")
		retries   = flag.Int("retries", 0, "re-run a retryably failing cell (timeout, panic) up to this many times")
		backoff   = flag.Duration("backoff", time.Second, "base delay before the first retry, doubling per attempt")
		out       = flag.String("out", "", "output CSV path (default stdout)")
		parallel  = flag.Int("parallel", 0, "batch-runner workers (0 = GOMAXPROCS); the CSV is identical for every value")
		timeout   = flag.Duration("timeout", 0, "per-run wall-clock budget (0 = none); an overrunning cell fails with a typed timeout error")
		progress  = flag.Bool("progress", false, "print live batch progress to stderr")
		traceDir  = flag.String("trace-dir", "", "write one event trace per cell into this directory (created if missing)")
		debugAddr = flag.String("debug-addr", "", "serve live telemetry (/debug/vars) and pprof on this address during the sweep (e.g. :8080, :0 for an ephemeral port)")
		statsFlag = flag.Bool("stats", false, "print the final telemetry counter table to stderr")
	)
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	cfg := sweepConfig{
		protocolsCSV: *protocols,
		dutiesCSV:    *duties,
		seeds:        *seeds,
		m:            *m,
		coverage:     *coverage,
		topoSeed:     *topoSeed,
		syncErr:      *syncErr,
		faultsPath:   *faults,
		journalPath:  *journal,
		resume:       *resume,
		retries:      *retries,
		backoff:      *backoff,
		parallel:     *parallel,
		timeout:      *timeout,
		traceDir:     *traceDir,
		debugAddr:    *debugAddr,
	}
	if *progress {
		cfg.progress = os.Stderr
	}
	if *statsFlag {
		cfg.statsOut = os.Stderr
	}
	if err := run(w, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

type sweepConfig struct {
	protocolsCSV string
	dutiesCSV    string
	seeds        int
	m            int
	coverage     float64
	topoSeed     uint64
	syncErr      float64
	faultsPath   string // JSON fault schedule, "" for a clean sweep
	journalPath  string // "" disables checkpointing
	resume       bool
	retries      int
	backoff      time.Duration
	parallel     int
	timeout      time.Duration
	traceDir     string    // "" disables per-cell trace files
	progress     io.Writer // nil disables progress reporting
	debugAddr    string    // "" disables the /debug/vars + pprof server
	statsOut     io.Writer // nil disables the final telemetry table
	// debugReady, when non-nil, receives the debug server's base URL once
	// it is listening — tests use it to curl the endpoints mid-sweep.
	debugReady func(url string)
}

// spec translates the flag set into the shared service.Spec — the same
// surface POST /v1/jobs validates — so a flag sweep and an HTTP job
// compile to the identical grid, journal key, and CSV bytes.
func (sc sweepConfig) spec() (service.Spec, error) {
	spec := service.Spec{
		Protocols: strings.Split(sc.protocolsCSV, ","),
		Seeds:     sc.seeds,
		M:         sc.m,
		Coverage:  sc.coverage,
		TopoSeed:  sc.topoSeed,
		SyncErr:   sc.syncErr,
		Parallel:  sc.parallel,
		Timeout:   service.Duration(sc.timeout),
		Retries:   sc.retries,
		Backoff:   service.Duration(sc.backoff),
	}
	for _, d := range strings.Split(sc.dutiesCSV, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(d), 64)
		if err != nil {
			return spec, fmt.Errorf("bad duty %q: %v", d, err)
		}
		spec.Duties = append(spec.Duties, v)
	}
	if sc.faultsPath != "" {
		faultJSON, err := os.ReadFile(sc.faultsPath)
		if err != nil {
			return spec, err
		}
		spec.Faults = faultJSON
	}
	return spec, nil
}

// diagnoseResume upgrades a -resume journal-open failure into an
// actionable message when the journal is recognizably from an older sweep
// release. Pre-canonicalization releases keyed the journal with the duty
// axis exactly as typed ("0.10,0.20"), so resuming such a journal with a
// current binary always fails the key check even though its records are
// valid results for the same grid. Any other failure is returned as-is.
func diagnoseResume(err error, path, want string) error {
	stored, kerr := runner.ReadJournalKey(path)
	if kerr != nil {
		return err
	}
	if norm, serial, retyped := service.NormalizeJournalKey(stored); norm != want || serial || !retyped {
		return err
	}
	return fmt.Errorf("%v\n"+
		"the journal was written by an older sweep release that keyed the grid with duties exactly as typed (%q); "+
		"current releases canonicalize duty formatting, so the key can never match even though the journal's records "+
		"are valid for this grid. Either re-run without -resume to recompute into a fresh journal, or migrate this one "+
		"by replacing the \"key\" field on its first line with %q and resuming again", err, stored, want)
}

func run(w io.Writer, sc sweepConfig) (err error) {
	if sc.traceDir != "" && sc.retries > 0 {
		return fmt.Errorf("-trace-dir cannot be combined with -retries: a retried cell would append the retry's events to the failed attempt's in the same trace file")
	}
	spec, err := sc.spec()
	if err != nil {
		return err
	}
	grid, err := service.Compile(spec)
	if err != nil {
		return err
	}
	jobs := grid.Jobs

	ropts := grid.Options()
	var reg *telemetry.Registry
	if sc.debugAddr != "" || sc.statsOut != nil {
		reg = telemetry.New()
		ropts.Telemetry = reg
		for i := range jobs {
			jobs[i].Telemetry = reg
		}
		if sc.debugAddr != "" {
			srv, err := telemetry.Serve(sc.debugAddr, reg)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "sweep: telemetry: serving debug endpoints on %s\n", srv.URL())
			if sc.debugReady != nil {
				sc.debugReady(srv.URL())
			}
		}
		if sc.statsOut != nil {
			defer func() {
				if err := reg.Snapshot().WriteTable(sc.statsOut); err != nil {
					fmt.Fprintln(os.Stderr, "sweep: warning:", err)
				}
			}()
		}
	}
	if sc.journalPath != "" {
		j, err := grid.OpenJournal(sc.journalPath, sc.resume)
		if err != nil {
			if sc.resume {
				return diagnoseResume(err, sc.journalPath, grid.JournalKey())
			}
			return err
		}
		defer j.Close()
		ropts.Journal = j
		defer func() {
			if err := j.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: warning:", err)
			}
		}()
	} else if sc.resume {
		return fmt.Errorf("-resume needs -journal")
	}
	// traces holds one open trace per cell that will run; a cell the
	// journal already holds is replayed, so its file is left untouched.
	type trace struct {
		f *os.File
		w *tracebin.Writer
	}
	var traces []trace
	defer func() {
		for _, tr := range traces {
			if cerr := tr.f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("trace: %w", cerr)
			}
		}
	}()
	if sc.traceDir != "" {
		if err := os.MkdirAll(sc.traceDir, 0o755); err != nil {
			return err
		}
		for i := range jobs {
			if ropts.Journal != nil {
				if _, done := ropts.Journal.Done(i); done {
					continue
				}
			}
			c := grid.Cells[i]
			name := fmt.Sprintf("%s_duty%.4f_seed%d.tracebin", c.Protocol, c.Duty, c.Seed)
			f, err := os.Create(filepath.Join(sc.traceDir, name))
			if err != nil {
				return err
			}
			bw := tracebin.NewWriter(f)
			if reg != nil {
				bw.Instrument(reg)
			}
			jobs[i].Observer = bw
			traces = append(traces, trace{f, bw})
		}
	}
	if sc.progress != nil {
		ropts.Progress = runner.ProgressPrinter(sc.progress, time.Second)
	}
	rs, _ := runner.Run(context.Background(), jobs, ropts)
	for _, tr := range traces {
		if err := tr.w.Flush(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return grid.WriteCSV(w, rs)
}
