package telemetry

// The opt-in debug HTTP server behind the CLIs' -debug-addr flag. It
// serves two families of endpoints on a private mux (never the global
// http.DefaultServeMux, so importing this package cannot leak handlers
// into an embedding application):
//
//	/debug/vars   expvar-compatible JSON: {"cmdline": ..., "memstats":
//	              ..., plus one key per registry instrument}
//	/debug/pprof  the standard net/http/pprof handlers (profile, heap,
//	              goroutine, trace, ...)
//
// A long sweep started with -debug-addr can therefore be watched with
// plain curl and profiled with `go tool pprof` while it runs; see
// docs/OBSERVABILITY.md for a worked example.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"
)

// Server is a running debug endpoint. Start one with Serve; stop it with
// Close. The zero value is not usable.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts a debug HTTP server for reg on addr (host:port; use ":0" or
// "127.0.0.1:0" to let the kernel pick a free port) and returns once the
// listener is bound — Addr then reports the actual address. The server
// runs on a background goroutine until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("telemetry: Serve needs a non-nil registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := &Server{ln: ln}
	mux := http.NewServeMux()
	MountDebug(mux, reg.Snapshot)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (with the kernel-assigned port
// when Serve was given port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns a dialable base URL, e.g. "http://127.0.0.1:43121". A
// wildcard listen host (":8080", "[::]:8080") is reported as localhost so
// the URL works verbatim in curl and go tool pprof.
func (s *Server) URL() string {
	host, port, err := net.SplitHostPort(s.Addr())
	if err != nil {
		return "http://" + s.Addr()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// Close stops the listener and releases the port.
func (s *Server) Close() error { return s.srv.Close() }

// MountDebug mounts the debug endpoints on mux: GET /debug/vars serves
// the expvar-compatible JSON document for the snapshot snap returns at
// each request, and /debug/pprof/ the standard net/http/pprof handlers.
// Serve mounts them for one registry; floodd mounts them beside its job
// API for the daemon's registry and every job's.
func MountDebug(mux *http.ServeMux, snap func() Snapshot) {
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		writeVars(w, snap())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// writeVars writes the expvar-compatible JSON document: the process
// command line and runtime.MemStats (the two vars the stdlib expvar
// package always publishes) followed by every instrument in snap, keys
// sorted. It is assembled by hand rather than through expvar.Publish
// because expvar's registry is process-global and panics on duplicate
// names, which would break tests (and any caller) running two servers in
// one process.
func writeVars(w http.ResponseWriter, snap Snapshot) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	cmdline, _ := json.Marshal(os.Args)
	memstats, _ := json.Marshal(mem)
	fmt.Fprintf(w, "{\n\"cmdline\": %s,\n\"memstats\": %s", cmdline, memstats)
	for _, k := range snap.Keys() {
		fmt.Fprintf(w, ",\n%q: %d", k, snap[k])
	}
	fmt.Fprint(w, "\n}\n")
}
