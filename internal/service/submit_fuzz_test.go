package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzSubmitBody sends arbitrary bodies to POST /v1/jobs. Whatever the
// body: the handler must not panic or answer 5xx, a 201 is given only to
// a body that is exactly one JSON document whose Spec compiles (after
// the documented defaults), and a 4xx admits no job. Admitted jobs are
// canceled at once; the daemon's own executor waits an hour before
// pulling a chunk, so no simulation runs.
func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{
		`{"protocols":["opt"],"duties":[0.1],"seeds":1,"m":2}`,
		`{"protocols":["opt"],"duties":[0.1],"seeds":1,"m":2} {"protocols":["bogus"]}`,
		`{"protocols":["opt"],"duties":[0.1],"seeds":1,"m":2}]`,
		`{"protocols":["opt"],"duties":[0.1],"seeds":1,"m":2}` + "\n\t ",
		`{"protocols":["dbao"],"duties":[0.05],"seeds":2,"m":3,"faults":{"crashes":[{"node":5,"at":10,"reboot_at":50}]}}`,
		`{"protocols":["bogus"],"duties":[0.1],"seeds":1,"m":2}`,
		`{"protocols":["opt"],"unknown_field":1}`,
		`{"compact":true}`,
		`{"duties":[1.5]}`,
		`{"timeout":"not a duration"}`,
		`{}`,
		`null`,
		`[]`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Options{Dir: f.TempDir(), Lease: LeaseOptions{LocalGrace: time.Hour}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort cleanup
	})
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		// Compile builds one engine config per cell; keep the grid small
		// so the fuzzer explores validation rather than allocation.
		var spec Spec
		oneDoc := json.Unmarshal(body, &spec) == nil
		if d := spec.withDefaults(); oneDoc && (len(d.Protocols) > 8 || len(d.Duties) > 8 || d.Seeds > 8 || len(d.Protocols)*len(d.Duties)*d.Seeds > 64) {
			return
		}
		before := len(s.Jobs())
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		admitted := len(s.Jobs()) - before
		switch {
		case rec.Code == http.StatusCreated:
			if !oneDoc {
				t.Fatalf("body %q is not exactly one JSON document but answered 201", body)
			}
			if _, err := Compile(spec.withDefaults()); err != nil {
				t.Fatalf("body %q does not compile (%v) but answered 201", body, err)
			}
			if admitted != 1 {
				t.Fatalf("body %q answered 201 but admitted %d jobs", body, admitted)
			}
			var st Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if err := s.Cancel(st.ID); err != nil {
				t.Fatal(err)
			}
			j, _ := s.Job(st.ID)
			for deadline := time.Now().Add(30 * time.Second); !j.State().Terminal(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("canceled job %s still %s", st.ID, j.State())
				}
			}
		case rec.Code >= 400 && rec.Code < 500:
			if admitted != 0 {
				t.Fatalf("body %q answered %d but admitted %d jobs", body, rec.Code, admitted)
			}
		default:
			t.Fatalf("body %q answered %d, want 201 or 4xx", body, rec.Code)
		}
	})
}
