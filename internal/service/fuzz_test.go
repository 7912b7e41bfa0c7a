package service

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"protogen"
)

// FuzzSubmit: whatever bytes a client posts to /jobs, the server does
// not panic, answers 202, 400 or 503, and every job it accepted ends
// done. The server has a result cache holding 2-cache non-stalling MSI,
// so the seeds reach both submit paths: the one the cache answers and
// the one that queues. Its executor finishes every job at once, failing
// it only if the request it was handed — decoded back from what the
// coordinator stored — no longer validates: a job's own cost is unbounded
// today (no per-job deadline or memory bound), and it is not what this
// target is about.
func FuzzSubmit(f *testing.F) {
	hit := Request{Kind: "verify", Protocol: "MSI", Caches: 2}
	seeds := []Request{
		hit,
		{Kind: "verify", Source: protogen.BuiltinMSI, Caches: 2},
		{Kind: "verify", Protocol: "MESI", Mode: "stalling", Caches: 2, NoCache: true},
		{Kind: "verify", Protocol: "MSI", Caches: 2, Fingerprint: true, Reduce: true, MaxStates: 100},
		{Kind: "lint", Protocol: "MOSI", Codes: []string{"PG104"}},
		{Kind: "litmus", Protocol: "TSO_CC", Tests: []string{"MP", "SB"}},
		{Kind: "simulate", Protocol: "MSI", Workload: "contended", Steps: 100},
		{Kind: "fuzz", First: 0, Last: 2, Families: []string{"MSI"}},
	}
	entries, err := protogen.FuzzCorpus()
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		seeds = append(seeds, Request{Kind: "verify", Source: e.Source, Mode: "stalling", Caches: 2})
	}
	for _, req := range seeds {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	for _, body := range []string{
		"", "null", "[]", "{", `{"kind":"verify"}`, `{"kind":"verify","protocol":"MSI","caches":9}`,
		`{"kind":"verify","source":"protocol X {}"}`, `{"kind":"verify","protocol":"MSI","bogus":1}`,
		`{"kind":"verify","protocol":"NoSuch"}`, `{"kind":"verify","protocol":"MSI","mode":"bogus"}`,
	} {
		f.Add([]byte(body))
	}

	eng := protogen.NewEngine(protogen.WithCacheDir(f.TempDir()))
	f.Cleanup(func() { eng.Close() })
	job, err := verifyJob(hit)
	if err != nil {
		f.Fatal(err)
	}
	if res, err := eng.Verify(context.Background(), job); err != nil || res.Cached {
		f.Fatalf("warming the cache: %v, %v", res, err)
	}
	srv, err := New(Config{
		Workers: 1, Engine: eng, Warn: func(string, ...any) {},
		Executor: func(_ context.Context, req Request, _ func(ProgressView)) Outcome {
			if err := req.validate(); err != nil {
				return failed(err)
			}
			ok := true
			return Outcome{Status: StatusDone, Summary: "instant", OK: &ok}
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			f.Error(err)
		}
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := do(srv, http.MethodPost, "/jobs", string(body))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusServiceUnavailable:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		var v JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.ID == "" {
			t.Fatalf("202 body %q: %v", rec.Body.String(), err)
		}
		id, deadline := v.ID, time.Now().Add(10*time.Second)
		for !isSettled(v) {
			if time.Now().After(deadline) {
				t.Fatalf("accepted job never finished: %+v", v)
			}
			time.Sleep(100 * time.Microsecond)
			var ok bool
			if v, ok = srv.co.view(id); !ok {
				t.Fatalf("accepted job %s vanished", id)
			}
		}
		if v.Status != StatusDone {
			t.Fatalf("accepted job ended %s: %s", v.Status, v.Error)
		}
	})
}
