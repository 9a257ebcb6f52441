// Command floodd is the simulation-as-a-service daemon: a long-running
// HTTP server that accepts sweep specifications as JSON jobs, runs them
// one at a time as leasable chunks (internal/lease) that its own local
// executor and any floodworker processes pull, streams progress as
// server-sent events, and serves the finished CSV artifacts.
// Every job is journal-backed on disk, so killing the daemon mid-job and
// restarting it resumes the sweep byte-identically (docs/SERVICE.md
// documents the API, the job spec schema, and the resume semantics).
//
// Usage:
//
//	floodd [-addr 127.0.0.1:8080] [-dir floodd-data] [-queue 16]
//	       [-job-timeout 0] [-drain-timeout 30s]
//	       [-chunk 4] [-lease-ttl 15s] [-lease-attempts 5] [-local-grace 0]
//
// Endpoints:
//
//	POST   /v1/jobs              submit a sweep spec (JSON), 201 + status
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status (state, progress, ETA)
//	GET    /v1/jobs/{id}/events  live progress stream (SSE)
//	GET    /v1/jobs/{id}/result  result CSV (?format=json for rows)
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/work              job currently accepting leases
//	POST   /v1/jobs/{id}/lease   claim a chunk; heartbeat and complete
//	                             sub-resources renew it and report results
//	GET    /healthz              liveness (503 while draining)
//	GET    /debug/vars           telemetry: floodd.* + per-job job.<id>.*
//	GET    /debug/pprof/         live profiling
//
// Every job executes through the worker-pull lease protocol
// (docs/SERVICE.md, "Job execution"): remote floodworker processes claim
// chunks of the sweep over HTTP, heartbeat while simulating, and report
// results the daemon journals. The daemon's own local executor pulls
// chunks the same way, so a daemon no worker connects to still finishes
// every job — and the result CSV is byte-identical either way. The lease
// endpoints are served behind the same trust boundary as job submission
// (the default bind is 127.0.0.1).
//
// On SIGINT/SIGTERM the daemon drains: it stops accepting jobs, stops
// the active job with the runner's shutdown cause (the job stays
// resumable, not canceled), and exits once the scheduler settles or
// -drain-timeout expires. The announced listen URL is printed to stderr
// as "floodd: serving on http://..." so scripts can scrape it when
// -addr uses port 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ldcflood/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; use :0 for an ephemeral port)")
		dir          = flag.String("dir", "floodd-data", "job state root: one journal-backed directory per job, resumed on restart")
		queue        = flag.Int("queue", 16, "bounded job queue: max queued+running jobs before submissions get 429")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job wall-clock budget covering the whole sweep (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may take before forced exit")

		chunk         = flag.Int("chunk", 4, "cells per lease")
		leaseTTL      = flag.Duration("lease-ttl", 15*time.Second, "lease lifetime between heartbeats")
		leaseAttempts = flag.Int("lease-attempts", 5, "per-chunk lost leases (silent expiries, partial reports) before the job fails")
		localGrace    = flag.Duration("local-grace", 0, "head start floodworker processes get before the daemon simulates chunks itself")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: floodd [flags]

The simulation job daemon: POST sweep specs to /v1/jobs, watch
/v1/jobs/{id}/events, fetch /v1/jobs/{id}/result. Jobs are journal-backed
under -dir and resume byte-identically after a kill. See docs/SERVICE.md.

flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	lo := service.LeaseOptions{
		ChunkSize:   *chunk,
		TTL:         *leaseTTL,
		MaxAttempts: *leaseAttempts,
		LocalGrace:  *localGrace,
	}
	if err := run(*addr, *dir, *queue, *jobTimeout, *drainTimeout, lo); err != nil {
		fmt.Fprintln(os.Stderr, "floodd:", err)
		os.Exit(1)
	}
}

// run starts the service and HTTP server, then blocks until a signal
// drains them.
func run(addr, dir string, queue int, jobTimeout, drainTimeout time.Duration, lo service.LeaseOptions) error {
	svc, err := service.New(service.Options{
		Dir:        dir,
		QueueLimit: queue,
		JobTimeout: jobTimeout,
		Lease:      lo,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "floodd: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}
	fmt.Fprintf(os.Stderr, "floodd: serving on %s\n", listenURL(ln))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "floodd: %v: draining\n", sig)
	case err := <-errc:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := svc.Drain(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w (unfinished jobs will resume on restart)", drainErr)
	}
	fmt.Fprintln(os.Stderr, "floodd: drained")
	return nil
}

// listenURL renders ln's bound address as a dialable http URL, mapping
// wildcard hosts to localhost (the telemetry.Server convention).
func listenURL(ln net.Listener) string {
	host, port, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		return "http://" + ln.Addr().String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port)
}
