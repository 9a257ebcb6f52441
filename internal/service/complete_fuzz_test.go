package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"ldcflood/internal/service"
)

// FuzzCompleteBody sends arbitrary bodies to the lease completion
// endpoint of a live job — served for every job, so it is an untrusted
// input like a spec. Whatever the body: the handler must not panic, a
// body that is not one CompleteRequest document must get a 4xx, and no
// cell outside the lease's chunk may ever reach the job's journal. A
// report naming such a cell, even as a failure, is rejected with a 4xx
// and leaves the job running.
func FuzzCompleteBody(f *testing.F) {
	for _, seed := range []string{
		`{"worker":"w","results":[{"index":0,"res":{}},{"index":1,"res":{}}]}`,
		`{"results":[{"index":0,"res":{"TotalSlots":7}}]}`,
		`{"results":[{"index":1,"error":"runner: job 1: timeout: exceeded wall-clock budget 1s"}]}`,
		`{"results":[{"index":0,"res":{}},{"index":1,"error":"boom","terminal":true}]}`,
		`{"results":[{"index":2,"res":{}}]}`,
		`{"results":[{"index":-1,"res":{}}]}`,
		`{"results":[{"index":99,"error":"x"}]}`,
		`{"results":[{"index":0,"res":{}},{"index":5,"error":"x"}]}`,
		`{"results":[{"index":0}]}`,
		`{"key":"sweep|other","results":[]}`,
		`{"results":[]} {"results":[{"index":2,"res":{}}]}`,
		`{"results":[{"index":0,"res":{}}]}]`,
		`{"results":null}`,
		`[]`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	// Remote-worker mode: the daemon's own executor never starts, so the
	// fuzzed report is the only thing that can touch the journal.
	s := newService(f, dir, service.Options{Lease: service.LeaseOptions{ChunkSize: 2, LocalGrace: time.Hour}})
	h := s.Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		j, err := s.Submit(distSpec())
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			s.Cancel(j.ID) //nolint:errcheck // a poisoned job is already terminal
			waitState(t, s, j.ID, 30*time.Second)
		}()
		var grant service.LeaseGrant
		for deadline := time.Now().Add(30 * time.Second); ; {
			rec := post("/v1/jobs/"+j.ID+"/lease", []byte(`{"worker":"fuzz"}`))
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &grant); err != nil {
					t.Fatal(err)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("lease = %d", rec.Code)
			}
			time.Sleep(time.Millisecond)
		}

		rec := post("/v1/jobs/"+j.ID+"/lease/"+grant.Lease+"/complete", body)
		in := make(map[int]bool, len(grant.Cells))
		for _, c := range grant.Cells {
			in[c] = true
		}
		var req service.CompleteRequest
		if json.Unmarshal(body, &req) != nil {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("malformed body %q answered %d, want 4xx", body, rec.Code)
			}
		} else if slices.ContainsFunc(req.Results, func(o service.CellOutcome) bool { return !in[o.Index] }) {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("body %q names a cell outside the chunk %v but answered %d, want 4xx", body, grant.Cells, rec.Code)
			}
			// The job must not be poisoned: its next chunk is still leasable.
			if rec := post("/v1/jobs/"+j.ID+"/lease", []byte(`{"worker":"fuzz"}`)); rec.Code != http.StatusOK {
				t.Fatalf("after the rejected body %q the next lease answered %d, want 200", body, rec.Code)
			}
		}
		jf, err := os.Open(filepath.Join(dir, j.ID, "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer jf.Close()
		sc := bufio.NewScanner(jf)
		sc.Buffer(nil, 64<<20)
		for sc.Scan() {
			var line struct {
				Index *int `json:"index"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Index != nil && !in[*line.Index] {
				t.Fatalf("body %q journaled cell %d outside the leased chunk %v", body, *line.Index, grant.Cells)
			}
		}
	})
}
