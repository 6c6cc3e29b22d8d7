package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// httpDo sends one request to h and decodes a structured error body, if
// any, returning the status and the error code ("" on success).
func httpDo(t *testing.T, h http.Handler, method, path, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	var e apiError
	if rec.Code >= 400 {
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s %s: %d with unstructured body %q", method, path, rec.Code, rec.Body.String())
		}
	}
	return rec.Code, e.Error.Code
}

// TestHTTPRequestBodyLimits checks both JSON endpoints refuse a body
// over maxRequestBytes with a structured 413, while a body just under
// the cap is decoded as usual.
func TestHTTPRequestBodyLimits(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4}, 200)
	h := NewHandler(s)
	// A JSON string field padded past the cap: valid JSON, just too big.
	oversized := func(field string) string {
		return fmt.Sprintf(`{%q:%q}`, field, strings.Repeat("a", maxRequestBytes))
	}
	for _, c := range []struct{ path, field string }{
		{"/v1/jobs", "dataset"},
		{"/v1/datasets", "name"},
	} {
		code, slug := httpDo(t, h, http.MethodPost, c.path, oversized(c.field))
		if code != http.StatusRequestEntityTooLarge || slug != "request_too_large" {
			t.Fatalf("POST %s oversized: %d %q, want 413 request_too_large", c.path, code, slug)
		}
		// Under the cap the request reaches validation: an unknown
		// dataset or a missing source, not a size error.
		under := fmt.Sprintf(`{%q:%q}`, c.field, strings.Repeat("a", maxRequestBytes/2))
		if code, slug := httpDo(t, h, http.MethodPost, c.path, under); code == http.StatusRequestEntityTooLarge || slug == "request_too_large" {
			t.Fatalf("POST %s under the cap refused as too large", c.path)
		}
	}
	// Malformed JSON is still a plain 400.
	if code, slug := httpDo(t, h, http.MethodPost, "/v1/jobs", "{"); code != http.StatusBadRequest || slug != "bad_request" {
		t.Fatalf("malformed body: %d %q, want 400 bad_request", code, slug)
	}
}

// TestManagerForgetsOldestFinishedJobs submits more cache-hit jobs than
// maxFinishedJobs: the table must hold exactly the bound, the oldest IDs
// must be the existing 404 unknown_job, and the newest must still serve
// their results.
func TestManagerForgetsOldestFinishedJobs(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4}, 300)
	h := NewHandler(s)
	req := Request{Dataset: "t10", Algorithm: repro.AlgoEclat, SupportPct: 2.0}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	const extra = 10
	ids := []string{first.ID}
	for i := 0; i < maxFinishedJobs+extra-1; i++ {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if v := j.Snapshot(); !v.Cached {
			t.Fatalf("submission %d missed the cache: %+v", i, v)
		}
		ids = append(ids, j.ID)
	}

	s.mgr.mu.Lock()
	tableLen, activeLen := len(s.mgr.jobs), len(s.mgr.active)
	s.mgr.mu.Unlock()
	if tableLen != maxFinishedJobs || activeLen != 0 {
		t.Fatalf("job table holds %d jobs (%d active), want exactly %d", tableLen, activeLen, maxFinishedJobs)
	}
	if got := len(s.Jobs()); got != maxFinishedJobs {
		t.Fatalf("job list has %d entries, want %d", got, maxFinishedJobs)
	}
	for _, id := range ids[:extra] {
		if code, slug := httpDo(t, h, http.MethodGet, "/v1/jobs/"+id, ""); code != http.StatusNotFound || slug != "unknown_job" {
			t.Fatalf("forgotten %s: %d %q, want 404 unknown_job", id, code, slug)
		}
	}
	for _, id := range ids[extra:] {
		if code, _ := httpDo(t, h, http.MethodGet, "/v1/jobs/"+id+"/result", ""); code != http.StatusOK {
			t.Fatalf("kept %s: result status %d, want 200", id, code)
		}
	}
	// A forgotten job's dataset is not busy: the removal check looks at
	// active jobs only.
	if err := s.RemoveDataset("t10"); err != nil {
		t.Fatalf("RemoveDataset with only finished jobs: %v", err)
	}
}
