package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ldcflood/internal/runner"
	"ldcflood/internal/service"
)

// testConfig returns a small, fast sweep configuration; tests override
// individual fields.
func testConfig() sweepConfig {
	return sweepConfig{
		protocolsCSV: "opt",
		dutiesCSV:    "0.10",
		seeds:        1,
		m:            5,
		coverage:     0.99,
		topoSeed:     1,
		parallel:     1,
	}
}

func TestRunProducesCSV(t *testing.T) {
	var buf bytes.Buffer
	sc := testConfig()
	sc.protocolsCSV = "opt,dbao"
	sc.dutiesCSV = "0.10,0.20"
	sc.seeds = 2
	sc.parallel = 2
	if err := run(&buf, sc); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + 2 protocols × 2 duties × 2 seeds.
	if len(records) != 1+8 {
		t.Fatalf("rows = %d, want 9", len(records))
	}
	if records[0][0] != "protocol" || len(records[0]) != 19 {
		t.Fatalf("bad header: %v", records[0])
	}
	for _, rec := range records[1:] {
		if rec[18] != "true" {
			t.Fatalf("incomplete run in row %v", rec)
		}
		delay, err := strconv.ParseFloat(rec[4], 64)
		if err != nil || delay <= 0 {
			t.Fatalf("bad mean delay %q", rec[4])
		}
	}
}

func TestRunOrderingIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	sa := testConfig()
	sa.seeds = 3
	sa.parallel = 4
	if err := run(&a, sa); err != nil {
		t.Fatal(err)
	}
	sb := sa
	sb.parallel = 1
	if err := run(&b, sb); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("parallelism changed the output")
	}
}

func TestRunSyncErrColumn(t *testing.T) {
	var buf bytes.Buffer
	sc := testConfig()
	sc.syncErr = 0.3
	if err := run(&buf, sc); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	syncFails, err := strconv.Atoi(records[1][12])
	if err != nil || syncFails == 0 {
		t.Fatalf("sync failures column = %q, want > 0", records[1][12])
	}
}

func TestRunTimeoutYieldsTypedError(t *testing.T) {
	var buf bytes.Buffer
	sc := testConfig()
	sc.m = 100
	sc.dutiesCSV = "0.02"
	sc.timeout = time.Microsecond // no 298-node run finishes this fast
	err := run(&buf, sc)
	if err == nil {
		t.Fatal("timeout accepted")
	}
	if !errors.Is(err, runner.ErrTimeout) {
		t.Fatalf("err = %v, want runner.ErrTimeout", err)
	}
	if !strings.Contains(err.Error(), "duty 0.02") {
		t.Fatalf("error %q does not name the failing cell", err)
	}
}

func TestRunProgressOutput(t *testing.T) {
	var buf, prog bytes.Buffer
	sc := testConfig()
	sc.seeds = 2
	sc.progress = &prog
	if err := run(&buf, sc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "jobs=2/2") {
		t.Fatalf("progress output %q missing final snapshot", prog.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	cases := []struct {
		protocols, duties string
		seeds, m          int
	}{
		{"bogus", "0.1", 1, 5},
		{"opt", "zero", 1, 5},
		{"opt", "0", 1, 5},
		{"opt", "1.5", 1, 5},
		{"opt", "0.1", 0, 5},
		{"opt", "0.1", 1, 0},
	}
	for i, c := range cases {
		sc := testConfig()
		sc.protocolsCSV = c.protocols
		sc.dutiesCSV = c.duties
		sc.seeds = c.seeds
		sc.m = c.m
		if err := run(&buf, sc); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}

	// A retried cell would append its retry's events to the failed
	// attempt's trace, so -retries with -trace-dir is refused up front.
	sc := testConfig()
	sc.retries = 1
	sc.traceDir = filepath.Join(t.TempDir(), "traces")
	if err := run(&buf, sc); err == nil || !strings.Contains(err.Error(), "retried cell") {
		t.Fatalf("-retries with -trace-dir: err = %v, want the reason", err)
	}
	if _, err := os.Stat(sc.traceDir); !os.IsNotExist(err) {
		t.Fatalf("rejected sweep created the trace directory (stat err %v)", err)
	}
}

// readTraces returns every file in dir by name.
func readTraces(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestRunResumeKeepsTraces: a resumed sweep writes traces only for the
// cells it runs. A fully journaled resume must leave every trace file
// byte-identical, and a partial one must rewrite the missing cells' files
// to the same bytes an uninterrupted sweep wrote.
func TestRunResumeKeepsTraces(t *testing.T) {
	sc := testConfig()
	sc.dutiesCSV = "0.05"
	sc.seeds = 2
	sc.journalPath = filepath.Join(t.TempDir(), "sweep.journal")
	sc.traceDir = filepath.Join(t.TempDir(), "traces")
	var buf bytes.Buffer
	if err := run(&buf, sc); err != nil {
		t.Fatal(err)
	}
	want := readTraces(t, sc.traceDir)
	if len(want) != 2 {
		t.Fatalf("sweep wrote %d trace files, want 2", len(want))
	}
	for name, data := range want {
		if !strings.HasSuffix(name, ".tracebin") || len(data) <= 5 {
			t.Fatalf("trace %s has %d bytes", name, len(data))
		}
	}

	sc.resume = true
	if err := run(&buf, sc); err != nil {
		t.Fatal(err)
	}
	if got := readTraces(t, sc.traceDir); !reflect.DeepEqual(got, want) {
		t.Fatal("a fully journaled resume changed the trace files")
	}

	// Keep the header and the first record, as a kill would, and drop
	// the traces: only the re-run cell gets its file back.
	data, err := os.ReadFile(sc.journalPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if err := os.WriteFile(sc.journalPath, bytes.Join(lines[:2], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(sc.traceDir); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, sc); err != nil {
		t.Fatal(err)
	}
	got := readTraces(t, sc.traceDir)
	if len(got) != 1 {
		t.Fatalf("partial resume wrote %d trace files, want 1", len(got))
	}
	for name, data := range got {
		if !bytes.Equal(data, want[name]) {
			t.Fatalf("re-run cell's trace %s differs from the uninterrupted sweep's", name)
		}
	}
}

// writeFaultSpec drops a small fault schedule (a jam over a node list plus
// one crash/reboot) into a temp file and returns its path.
func writeFaultSpec(t *testing.T) string {
	t.Helper()
	spec := `{
		"jams": [{"from": 0, "until": 200, "nodes": [5, 6, 7]}],
		"crashes": [{"node": 9, "at": 10, "reboot_at": 100}]
	}`
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFaultColumns(t *testing.T) {
	var clean, faulted bytes.Buffer
	sc := testConfig()
	if err := run(&clean, sc); err != nil {
		t.Fatal(err)
	}
	sc.faultsPath = writeFaultSpec(t)
	if err := run(&faulted, sc); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&faulted).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rec := records[1]
	if jam, _ := strconv.Atoi(rec[13]); jam == 0 {
		t.Fatalf("jam column = %q, want > 0", rec[13])
	}
	if rec[15] != "1" || rec[16] != "1" {
		t.Fatalf("crashes/reboots = %q/%q, want 1/1", rec[15], rec[16])
	}
	// The clean sweep reports zeros in the same columns.
	records, err = csv.NewReader(&clean).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rec = records[1]
	if rec[13] != "0" || rec[15] != "0" || rec[16] != "0" {
		t.Fatalf("clean run has fault counters: %v", rec)
	}
}

func TestRunFaultsBadSpec(t *testing.T) {
	var buf bytes.Buffer
	sc := testConfig()
	sc.faultsPath = filepath.Join(t.TempDir(), "missing.json")
	if err := run(&buf, sc); err == nil {
		t.Fatal("missing fault file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	// Node 0 is the source; crashing it is rejected by validation.
	os.WriteFile(path, []byte(`{"crashes": [{"node": 0, "at": 1, "reboot_at": -1}]}`), 0o644)
	sc.faultsPath = path
	if err := run(&buf, sc); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}

func TestRunJournalResumeByteIdentical(t *testing.T) {
	sc := testConfig()
	sc.protocolsCSV = "opt,of"
	sc.seeds = 2
	sc.faultsPath = writeFaultSpec(t)

	// Reference: one uninterrupted sweep, no journal.
	var want bytes.Buffer
	if err := run(&want, sc); err != nil {
		t.Fatal(err)
	}

	// Interrupted sweep: run the full grid once with a journal, then strip
	// the journal back to its first two records — the state a kill would
	// leave behind.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	var scratch bytes.Buffer
	scJ := sc
	scJ.journalPath = path
	if err := run(&scratch, scJ); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal has %d lines, want header + 4 records", len(lines))
	}
	truncated := bytes.Join(lines[:3], nil) // header + 2 records
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume against the truncated journal: 2 cells replay, 2 re-run.
	var got bytes.Buffer
	scR := scJ
	scR.resume = true
	if err := run(&got, scR); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatal("resumed sweep CSV differs from the uninterrupted run")
	}

	// Resuming the now-complete journal with different grid parameters must
	// fail loudly.
	scBad := scR
	scBad.seeds = 3
	if err := run(&got, scBad); err == nil {
		t.Fatal("resume with a different grid accepted")
	}
}

// TestRunResumeOldJournalKey resumes a journal an older release wrote
// under the v2 key format ("sweep/v2|...|compact=true|faults=..."). A
// journal resumes only under the grid's current key, so the sweep fails
// with the runner's key-mismatch error naming both keys, and leaves the
// journal byte-identical.
func TestRunResumeOldJournalKey(t *testing.T) {
	sc := testConfig()
	sc.journalPath = filepath.Join(t.TempDir(), "sweep.journal")
	var scratch bytes.Buffer
	if err := run(&scratch, sc); err != nil {
		t.Fatal(err)
	}
	spec, err := sc.spec()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := service.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := grid.JournalKey()
	rest, ok := strings.CutPrefix(key, "sweep/v3|")
	i := strings.LastIndex(rest, "|faults=")
	if !ok || i < 0 {
		t.Fatalf("unexpected journal key %q", key)
	}
	old := "sweep/v2|" + rest[:i] + "|compact=true" + rest[i:]
	data, err := os.ReadFile(sc.journalPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	data = fmt.Appendf(nil, "{\"journal\":\"ldcflood-runner\",\"v\":1,\"key\":%q}\n%s", old, lines[1])
	if err := os.WriteFile(sc.journalPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	sc.resume = true
	err = run(&scratch, sc)
	wantErr := fmt.Sprintf("belongs to a different batch (key %q, want %q)", old, key)
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("resuming a v2 journal: err = %v, want %q", err, wantErr)
	}
	got, err := os.ReadFile(sc.journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("the refused journal changed:\n%s\nvs\n%s", got, data)
	}
}

func TestRunResumeNeedsJournal(t *testing.T) {
	var buf bytes.Buffer
	sc := testConfig()
	sc.resume = true
	if err := run(&buf, sc); err == nil {
		t.Fatal("-resume without -journal accepted")
	}
}

// TestRunDebugAddrAndStats runs a sweep with the debug server and stats
// table enabled, fetching /debug/vars and a pprof endpoint while (or just
// after) the grid executes — the in-process version of the CI smoke step.
func TestRunDebugAddrAndStats(t *testing.T) {
	var buf, statsBuf bytes.Buffer
	sc := testConfig()
	sc.seeds = 2
	sc.debugAddr = ":0"
	sc.statsOut = &statsBuf
	var varsBody, pprofStatus string
	sc.debugReady = func(url string) {
		varsBody = httpGet(t, url+"/debug/vars")
		resp, err := http.Get(url + "/debug/pprof/")
		if err != nil {
			t.Errorf("pprof index: %v", err)
			return
		}
		resp.Body.Close()
		pprofStatus = resp.Status
	}
	if err := run(&buf, sc); err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(varsBody), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, varsBody)
	}
	// The fetch happens before the batch registers its counters, so only
	// the structural expvar keys are guaranteed here; counter content is
	// asserted on the (post-run) stats table below and in
	// internal/telemetry's server tests.
	for _, k := range []string{"cmdline", "memstats"} {
		if _, ok := vars[k]; !ok {
			t.Errorf("/debug/vars missing %q", k)
		}
	}
	if !strings.HasPrefix(pprofStatus, "200") {
		t.Errorf("pprof index status = %q, want 200", pprofStatus)
	}
	for _, k := range []string{"runner.jobs.done", "sim.runs.completed", "sim.tx.attempts"} {
		if !strings.Contains(statsBuf.String(), k) {
			t.Errorf("stats table missing %q:\n%s", k, statsBuf.String())
		}
	}
}

// httpGet fetches a URL and returns its body, failing the test on error.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

// TestRunMatchesServiceResult is the service-parity acceptance check: the
// same grid submitted as an HTTP job to internal/service must yield a
// result byte-identical to this command's CSV, because both compile
// through service.Compile and render through Grid.WriteCSV.
func TestRunMatchesServiceResult(t *testing.T) {
	sc := testConfig()
	sc.protocolsCSV = "opt,dbao"
	sc.seeds = 2
	sc.faultsPath = writeFaultSpec(t)

	var want bytes.Buffer
	if err := run(&want, sc); err != nil {
		t.Fatal(err)
	}

	svc, err := service.New(service.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx)
	}()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec, err := sc.spec()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		j, ok := svc.Job(st.ID)
		if !ok {
			t.Fatalf("job %s vanished", st.ID)
		}
		if s := j.State(); s.Terminal() {
			if s != service.StateDone {
				t.Fatalf("job %s = %s (%s)", st.ID, s, j.Status().Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	got := httpGet(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if got != want.String() {
		t.Fatalf("HTTP job result differs from cmd/sweep output:\n%s\nvs\n%s", got, want.String())
	}
}
