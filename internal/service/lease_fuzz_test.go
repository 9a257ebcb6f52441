package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"
	"time"

	"ldcflood/internal/service"
)

// FuzzLeaseBody sends arbitrary bodies to a live job's lease endpoint and
// arbitrary {lease} path segments to its heartbeat endpoint: both are
// served to any client, so both are untrusted input. Whatever the input,
// the handlers must not panic; a lease body that is not exactly one
// LeaseRequest document gets a 400; a granted chunk's cells lie inside
// the job and inside no other live lease; and a heartbeat naming a lease
// that was never granted gets a 410 and does not renew a live lease.
func FuzzLeaseBody(f *testing.F) {
	for _, seed := range []struct{ body, lease string }{
		{`{"worker":"w"}`, "L000001"},
		{`{"worker":"w"}`, "L000002"},
		{`{}`, "L000003"},
		{`null`, "L999999"},
		{`{"worker":"w","extra":1}`, "l000001"},
		{`{"worker":7}`, " L000001"},
		{`{"worker":"w"} {"worker":"v"}`, "L000001/complete"},
		{`{"worker":"w"}]`, "%2E%2E"},
		{`[]`, "x"},
		{`"w"`, "L0000010"},
		{`not json`, "\x00"},
		{``, ""},
	} {
		f.Add([]byte(seed.body), seed.lease)
	}
	// A short TTL lets an iteration see whether a stray heartbeat renewed
	// the held lease: renewed, it would still be live after its granted
	// deadline. The local executor never starts, so only the fuzz client
	// holds leases.
	const ttl = 40 * time.Millisecond
	s := newService(f, f.TempDir(), service.Options{Lease: service.LeaseOptions{ChunkSize: 2, TTL: ttl, LocalGrace: time.Hour}})
	h := s.Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	cells := len(distSpec().Duties) * distSpec().Seeds

	f.Fuzz(func(t *testing.T, body []byte, leaseID string) {
		j, err := s.Submit(distSpec())
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			s.Cancel(j.ID) //nolint:errcheck // the job may already be terminal
			waitState(t, s, j.ID, 30*time.Second)
		}()
		jobPath := "/v1/jobs/" + j.ID
		var held service.LeaseGrant
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			rec := post(jobPath+"/lease", []byte(`{"worker":"holder"}`))
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &held); err != nil {
					t.Fatal(err)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("lease = %d", rec.Code)
			}
		}
		granted := []string{held.Lease}

		rec := post(jobPath+"/lease", body)
		var req service.LeaseRequest
		switch {
		case json.Unmarshal(body, &req) != nil:
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("body %q is not one LeaseRequest document but answered %d, want 400", body, rec.Code)
			}
		case rec.Code == http.StatusOK:
			var g service.LeaseGrant
			if err := json.Unmarshal(rec.Body.Bytes(), &g); err != nil {
				t.Fatal(err)
			}
			granted = append(granted, g.Lease)
			for _, c := range g.Cells {
				if c < 0 || c >= cells || slices.Contains(held.Cells, c) {
					t.Fatalf("body %q was granted cell %d: outside the job's %d cells or inside the held lease's %v", body, c, cells, held.Cells)
				}
			}
		case rec.Code != http.StatusNoContent:
			t.Fatalf("body %q answered %d, want 200 or 204", body, rec.Code)
		}

		// ServeMux redirects these path segments instead of routing them.
		if leaseID == "" || leaseID == "." || leaseID == ".." || slices.Contains(granted, leaseID) {
			return
		}
		time.Sleep(ttl / 2)
		if rec := post(jobPath+"/lease/"+url.PathEscape(leaseID)+"/heartbeat", nil); rec.Code != http.StatusGone {
			t.Fatalf("heartbeat for the never-granted lease %q answered %d, want 410", leaseID, rec.Code)
		}
		// Unrenewed, the held lease is gone a little after its deadline;
		// renewed by the stray heartbeat it would live ttl/2 longer.
		time.Sleep(time.Until(held.Deadline) + ttl/4)
		if rec := post(jobPath+"/lease/"+held.Lease+"/heartbeat", nil); rec.Code != http.StatusGone {
			t.Fatalf("held lease %s still live after its deadline: the heartbeat for %q renewed it (%d)", held.Lease, leaseID, rec.Code)
		}
	})
}
