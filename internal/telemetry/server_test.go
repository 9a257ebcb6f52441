package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestServeVarsAndPprof(t *testing.T) {
	r := New()
	r.Counter("test.counter").Add(12)
	r.Timer("test.timer").Observe(1000)
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.HasPrefix(s.URL(), "http://127.0.0.1:") {
		t.Fatalf("URL = %q", s.URL())
	}

	// /debug/vars: valid JSON carrying expvar's standard vars plus ours.
	resp, err := http.Get(s.URL() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"cmdline", "memstats", "test.counter", "test.timer.count", "test.timer.total_ns"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("/debug/vars lacks %q; keys: %v", key, keysOf(doc))
		}
	}
	if v, ok := doc["test.counter"].(float64); !ok || v != 12 {
		t.Fatalf("test.counter = %v, want 12", doc["test.counter"])
	}

	// Counters keep moving between snapshots.
	r.Counter("test.counter").Add(1)
	resp2, err := http.Get(s.URL() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var doc2 map[string]any
	if err := json.Unmarshal(body2, &doc2); err != nil {
		t.Fatal(err)
	}
	if v := doc2["test.counter"].(float64); v != 13 {
		t.Fatalf("second snapshot test.counter = %v, want 13", v)
	}

	// /debug/pprof: index and a cheap profile endpoint respond.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(s.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
}

func TestServeNilRegistry(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("Serve(nil) succeeded")
	}
}

// TestTwoServersOneProcess guards the reason writeVars avoids
// expvar.Publish: two live debug servers in one process must not panic or
// interfere.
func TestTwoServersOneProcess(t *testing.T) {
	s1, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, s := range []*Server{s1, s2} {
		resp, err := http.Get(s.URL() + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", s.URL(), resp.StatusCode)
		}
	}
}

func keysOf(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
