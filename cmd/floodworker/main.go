// Command floodworker is the pull-based compute client for a floodd
// daemon. It polls the daemon for work, leases chunks of the active
// sweep, simulates them with the chunk executor the daemon's own local
// executor uses (service.RunChunk, the spec's retries included),
// heartbeats while simulating, and reports results back. Because every
// simulation is deterministic and the daemon journals completions
// idempotently, any number of workers — killed, restarted, or zombified
// mid-chunk — leave the final CSV byte-identical to a single-daemon run.
//
// Usage:
//
//	floodworker -server http://127.0.0.1:8080 [-name host-pid]
//	            [-parallel 0] [-poll 300ms] [-idle-exit 0]
//
// The worker is stateless: all coordination lives in the daemon's lease
// manager and journal. A worker that dies mid-chunk simply stops
// heartbeating; its lease expires and the chunk is reassigned. A worker
// that outlives its lease (a zombie) still reports — the daemon accepts
// fresh cells (deterministic work is deterministic) and drops duplicates.
// Transport errors are retried with a steady poll: a daemon restart looks
// like a brief outage, not a failure.
//
// Before executing a grant the worker compiles the job's Spec locally and
// verifies its journal key matches the grant's — a mismatch means the
// worker binary disagrees with the daemon about what the sweep computes
// (version skew) and executing would corrupt the sweep, so the worker
// refuses the job. See docs/SERVICE.md, "Job execution".
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ldcflood/internal/service"
)

func main() {
	var (
		server   = flag.String("server", "", "floodd base URL (required), e.g. http://127.0.0.1:8080")
		name     = flag.String("name", "", "worker name reported to the daemon (default host-pid)")
		parallel = flag.Int("parallel", 0, "cells simulated concurrently within a chunk (0 = GOMAXPROCS)")
		poll     = flag.Duration("poll", 300*time.Millisecond, "idle poll interval when no work is available")
		idleExit = flag.Duration("idle-exit", 0, "exit after this long without work (0 = run forever)")

		completeDelay = flag.Duration("complete-delay", 0, "chaos testing: sleep before reporting each chunk (a delay beyond the lease TTL forces zombie completions)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: floodworker -server URL [flags]

Pull-based compute client for floodd: leases sweep chunks, simulates
them, reports results. Safe to kill -9 at any instant — the
lease protocol reassigns abandoned chunks and deduplicates late reports.
See docs/SERVICE.md.

flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	if *server == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	w := &worker{
		base: *server, name: *name, parallel: *parallel,
		poll: *poll, idleExit: *idleExit, completeDelay: *completeDelay,
		client: &http.Client{Timeout: 30 * time.Second},
		grids:  make(map[string]*service.Grid),
		logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "floodworker["+*name+"]: "+format+"\n", args...)
		},
	}
	if err := w.run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "floodworker:", err)
		os.Exit(1)
	}
}

// worker is one floodworker process's state: the daemon endpoint, the
// compiled-grid cache, and the knobs.
type worker struct {
	base          string
	name          string
	parallel      int
	poll          time.Duration
	idleExit      time.Duration
	completeDelay time.Duration
	client        *http.Client
	grids         map[string]*service.Grid // job id -> compiled grid
	logf          func(format string, args ...any)
}

// run is the main loop: discover work, lease, simulate, report, repeat.
// Every transport failure degrades to an idle poll — the daemon may be
// restarting, and the lease protocol makes waiting always safe.
func (w *worker) run(ctx context.Context) error {
	idleSince := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		worked, err := w.pullOnce(ctx)
		if err != nil && !errors.Is(err, context.Canceled) {
			w.logf("%v", err)
		}
		if worked {
			idleSince = time.Now()
			continue
		}
		if w.idleExit > 0 && time.Since(idleSince) > w.idleExit {
			w.logf("idle for %v, exiting", w.idleExit)
			return nil
		}
		t := time.NewTimer(w.poll)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// pullOnce performs one unit of the loop: find the active job, claim one
// lease, execute it, report. It returns true when a chunk was executed
// (the caller skips the idle backoff).
func (w *worker) pullOnce(ctx context.Context) (bool, error) {
	var work service.WorkReply
	code, err := w.getJSON(ctx, "/v1/work", &work)
	if err != nil {
		return false, err
	}
	if code == http.StatusNoContent {
		return false, nil
	}
	if code != http.StatusOK {
		return false, fmt.Errorf("GET /v1/work: unexpected status %d", code)
	}
	grid, err := w.grid(ctx, work.ID)
	if err != nil {
		return false, err
	}

	var grant service.LeaseGrant
	code, err = w.postJSON(ctx, "/v1/jobs/"+work.ID+"/lease",
		service.LeaseRequest{Worker: w.name}, &grant)
	if err != nil {
		return false, err
	}
	switch code {
	case http.StatusOK:
	case http.StatusNoContent, http.StatusGone, http.StatusConflict:
		// Nothing leasable right now / the job just finished / the job
		// stopped running between the two calls.
		return false, nil
	default:
		return false, fmt.Errorf("lease: unexpected status %d", code)
	}
	if grant.Key != grid.JournalKey() {
		// Version skew: our engine would not compute what the daemon
		// journals. Refuse rather than corrupt; the lease expires harmlessly.
		return false, fmt.Errorf("job %s: journal key mismatch (daemon %q, local %q) — rebuild floodworker to match the daemon",
			work.ID, grant.Key, grid.JournalKey())
	}
	w.execute(ctx, work.ID, grid, &grant)
	return true, nil
}

// grid returns the compiled grid for a job, fetching and compiling its
// Spec on first use. Grids are cached per job id — compilation builds the
// full topology, which is far more expensive than a chunk's HTTP round
// trip.
func (w *worker) grid(ctx context.Context, id string) (*service.Grid, error) {
	if g, ok := w.grids[id]; ok {
		return g, nil
	}
	var st service.Status
	code, err := w.getJSON(ctx, "/v1/jobs/"+id, &st)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs/%s: unexpected status %d", id, code)
	}
	g, err := service.Compile(st.Spec)
	if err != nil {
		return nil, fmt.Errorf("job %s: compiling spec: %w", id, err)
	}
	w.grids[id] = g
	w.logf("job %s: compiled grid (%d cells, key %q)", id, len(g.Cells), g.JournalKey())
	return g, nil
}

// execute simulates one leased chunk, heartbeating at TTL/3 while it
// runs, and reports the outcomes. A lost lease (heartbeat 410) cancels
// the chunk mid-simulation; a -complete-delay past the TTL turns the
// report into a deliberate zombie completion, which the daemon dedupes.
func (w *worker) execute(ctx context.Context, jobID string, grid *service.Grid, grant *service.LeaseGrant) {
	w.logf("job %s: leased chunk %d (%d cells, lease %s)", jobID, grant.Chunk, len(grant.Cells), grant.Lease)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(time.Duration(grant.TTL) / 3)
		defer tick.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
				var hb service.HeartbeatReply
				code, err := w.postJSON(runCtx, "/v1/jobs/"+jobID+"/lease/"+grant.Lease+"/heartbeat", struct{}{}, &hb)
				if err != nil {
					continue // transient; the next tick retries
				}
				if code == http.StatusGone || code == http.StatusConflict {
					w.logf("job %s: lease %s gone, abandoning chunk %d", jobID, grant.Lease, grant.Chunk)
					cancel()
					return
				}
			}
		}
	}()

	outs, err := service.RunChunk(runCtx, grid, grant.Cells, w.parallel, nil)
	if err != nil {
		w.logf("job %s: %v, abandoning", jobID, err)
		return
	}
	// Snapshot abandonment BEFORE tearing runCtx down ourselves: after
	// cancel() below, runCtx.Err() is non-nil on every path and cannot
	// distinguish a lost lease from a normal finish.
	abandoned := runCtx.Err() != nil && ctx.Err() == nil
	cancel()
	<-hbDone
	if ctx.Err() != nil {
		return // shutting down; the lease expires and the chunk is reassigned
	}
	if abandoned {
		// The heartbeat loop abandoned the chunk: someone else owns it now.
		return
	}

	if w.completeDelay > 0 {
		w.logf("job %s: chaos delay %v before completing chunk %d", jobID, w.completeDelay, grant.Chunk)
		t := time.NewTimer(w.completeDelay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
	}
	var reply service.CompleteReply
	code, err := w.postJSON(ctx, "/v1/jobs/"+jobID+"/lease/"+grant.Lease+"/complete",
		service.CompleteRequest{Worker: w.name, Key: grant.Key, Results: outs}, &reply)
	switch {
	case err != nil:
		// The daemon will reassign the chunk; our work is simply lost.
		w.logf("job %s: completing chunk %d: %v", jobID, grant.Chunk, err)
	case code == http.StatusGone:
		w.logf("job %s: chunk %d completed as zombie (accepted %d, dropped %d)",
			jobID, grant.Chunk, reply.Accepted, reply.Dropped)
	case code == http.StatusOK:
		w.logf("job %s: chunk %d complete (accepted %d, dropped %d, zombie %v)",
			jobID, grant.Chunk, reply.Accepted, reply.Dropped, reply.Zombie)
	default:
		w.logf("job %s: completing chunk %d: unexpected status %d", jobID, grant.Chunk, code)
	}
}

// getJSON performs a GET and decodes a JSON body into out (skipped for
// 204). It returns the status code; transport errors are returned as-is.
func (w *worker) getJSON(ctx context.Context, path string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+path, nil)
	if err != nil {
		return 0, err
	}
	return w.do(req, out)
}

// postJSON performs a POST with a JSON body and decodes the JSON reply
// into out. It returns the status code; transport errors are returned
// as-is.
func (w *worker) postJSON(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.do(req, out)
}

// do executes the request and best-effort decodes a JSON body into out.
func (w *worker) do(req *http.Request, out any) (int, error) {
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil && resp.StatusCode < 300 {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", req.Method, req.URL.Path, err)
		}
	}
	return resp.StatusCode, nil
}
