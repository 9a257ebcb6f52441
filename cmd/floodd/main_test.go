package main

// End-to-end daemon tests: run() against a real listener, submit a job
// over HTTP, drain via the signal path. The doc-sync checks pin the
// package comment's endpoint table and the flag set to docs/SERVICE.md
// (satellite: -help and the doc must not drift apart).

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"ldcflood/internal/service"
)

// TestRunServesAndDrains boots the daemon on an ephemeral port, submits
// a tiny job, waits for the result, and SIGTERMs the process group path
// by signalling ourselves — run() must drain and return nil.
func TestRunServesAndDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run(addr, t.TempDir(), 4, 0, 30*time.Second, service.LeaseOptions{})
	}()

	base := "http://" + addr
	// Wait for the listener.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	spec := `{"protocols":["opt"],"duties":[0.1],"seeds":1,"m":5}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, body.String())
	}
	loc := resp.Header.Get("Location")

	deadline = time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + loc + "/result")
		if err != nil {
			t.Fatal(err)
		}
		ok := resp.StatusCode == http.StatusOK
		var csv bytes.Buffer
		csv.ReadFrom(resp.Body)
		resp.Body.Close()
		if ok {
			if !strings.HasPrefix(csv.String(), "protocol,") {
				t.Fatalf("result is not the sweep CSV:\n%s", csv.String())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The signal path: SIGTERM to our own process reaches run()'s
	// signal.Notify; it must drain and exit cleanly.
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s")
	}
}

// TestDocEndpointTableMatchesService pins the package comment's endpoint
// table and docs/SERVICE.md to the mux: every route the handler serves
// must appear in both, so -help, the doc, and the code cannot drift.
func TestDocEndpointTableMatchesService(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{
		"POST /v1/jobs",
		"GET /v1/jobs",
		"GET /v1/jobs/{id}",
		"GET /v1/jobs/{id}/events",
		"GET /v1/jobs/{id}/result",
		"DELETE /v1/jobs/{id}",
		"GET /v1/work",
		"POST /v1/jobs/{id}/lease",
		"GET /healthz",
		"GET /debug/vars",
	} {
		method, path, _ := strings.Cut(route, " ")
		// The package comment uses aligned columns; collapse whitespace.
		squashed := strings.Join(strings.Fields(string(src)), " ")
		if !strings.Contains(squashed, method+" "+path) {
			t.Errorf("package comment missing endpoint %q", route)
		}
		if !bytes.Contains(doc, []byte(path)) {
			t.Errorf("docs/SERVICE.md missing endpoint path %q", path)
		}
	}
}

// TestFlagsDocumented pins every flag to docs/SERVICE.md's ops section.
func TestFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	// Keep this list in sync with main()'s flag declarations; the source
	// check below catches a rename, the doc check a stale SERVICE.md.
	for _, name := range []string{
		"-addr", "-dir", "-queue", "-job-timeout", "-drain-timeout",
		"-chunk", "-lease-ttl", "-lease-attempts", "-local-grace",
	} {
		if !bytes.Contains(doc, []byte("`"+name+"`")) {
			t.Errorf("docs/SERVICE.md missing flag %s", name)
		}
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"addr", "dir", "queue", "job-timeout", "drain-timeout",
		"chunk", "lease-ttl", "lease-attempts", "local-grace",
	} {
		if !bytes.Contains(src, []byte(fmt.Sprintf("%q", name))) {
			t.Errorf("main.go missing flag declaration %q", name)
		}
	}
}
