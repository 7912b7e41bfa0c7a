package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"protogen"
	"protogen/internal/jobstore"
)

// These tests cover a verify job the result cache answers at submit: one
// store write, no executor call, and the same record a worker serving
// the hit would have left.

// verifyBody is a verify request for a registry protocol at 2 caches.
// maxStates > 0 caps the exploration, which keeps a test's cold runs
// short; a capped result is cached like any other.
func verifyBody(protocol, mode string, maxStates int) string {
	body, _ := json.Marshal(Request{Kind: "verify", Protocol: protocol, Mode: mode, Caches: 2, MaxStates: maxStates})
	return string(body)
}

// submitView posts body in-process and returns the 202's job view.
func submitView(t *testing.T, srv *Server, body string) JobView {
	t.Helper()
	rec := do(srv, http.MethodPost, "/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d: %s", body, rec.Code, rec.Body.String())
	}
	var v JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.ID == "" {
		t.Fatalf("submit %s: view %q: %v", body, rec.Body.String(), err)
	}
	return v
}

// waitSettled polls a job in-process until it is terminal or dead.
func waitSettled(t *testing.T, srv *Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, ok := srv.co.view(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		if isSettled(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never settled: %+v", id, v)
		}
		time.Sleep(time.Millisecond)
	}
}

// resultBody is the body of GET /jobs/{id}/result.
func resultBody(t *testing.T, srv *Server, id string) []byte {
	t.Helper()
	rec := do(srv, http.MethodGet, "/jobs/"+id+"/result", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("result of %s: status %d: %s", id, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// cacheStats reads the result cache's counts off /healthz.
func cacheStats(t *testing.T, srv *Server) (hits, misses int) {
	t.Helper()
	var health struct {
		Cache struct{ Hits, Misses int } `json:"cache"`
	}
	if err := json.Unmarshal(do(srv, http.MethodGet, "/healthz", "").Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	return health.Cache.Hits, health.Cache.Misses
}

// walLines counts the lines of the job log in dir.
func walLines(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, jobstore.WALName))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n"))
}

// isAnswered reports whether a 202's view is a job the submit answered:
// done from the cache, started and finished as submitted, no attempt.
func isAnswered(v JobView) bool {
	return v.Status == StatusDone && v.Cached && v.OK != nil && v.Attempt == 0 &&
		v.Started != nil && v.Started.Equal(v.Submitted) && v.Finished != nil && v.Finished.Equal(v.Submitted)
}

// TestAnsweredJobDurable: over a WAL store and a cache directory, a
// resubmit the cache answers costs one log line and no executor call, and a restarted server on the same directories still
// has it done with a byte-identical result — and answers the next
// resubmit from the cache file it reopened.
func TestAnsweredJobDurable(t *testing.T) {
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	var calls atomic.Int64
	// boot starts a server on the two directories; stop shuts it down and
	// closes what boot built for it.
	boot := func() (srv *Server, stop func()) {
		eng := protogen.NewEngine(protogen.WithCacheDir(cacheDir))
		run := engineExecutor(eng, "")
		srv, err := New(Config{
			Workers: 1, StoreDir: storeDir, Engine: eng,
			Executor: func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
				calls.Add(1)
				return run(ctx, req, onProgress)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		stop = sync.OnceFunc(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Error(err)
			}
			eng.Close()
		})
		t.Cleanup(stop)
		return srv, stop
	}
	body := verifyBody("MSI", "nonstalling", 0)

	srv, stop := boot()
	first := waitSettled(t, srv, submitView(t, srv, body).ID)
	if first.Status != StatusDone || first.Cached || calls.Load() != 1 {
		t.Fatalf("first run: %+v after %d executor calls", first, calls.Load())
	}
	lines := walLines(t, storeDir)

	v := submitView(t, srv, body)
	if !isAnswered(v) {
		t.Fatalf("resubmit's 202 is not an answered job: %+v", v)
	}
	if got := walLines(t, storeDir) - lines; got != 1 {
		t.Errorf("the answered job wrote %d log lines, want 1", got)
	}
	if calls.Load() != 1 {
		t.Errorf("the executor ran %d times, want once (the first job)", calls.Load())
	}
	if again, _ := srv.co.view(v.ID); !isAnswered(again) || again.Summary != first.Summary || *again.OK != *first.OK {
		t.Fatalf("answered job %+v, first run %+v", again, first)
	}
	want := resultBody(t, srv, v.ID)
	stop()

	srv2, _ := boot()
	if after, ok := srv2.co.view(v.ID); !ok || !isAnswered(after) {
		t.Fatalf("after a restart the answered job is %+v (found %v)", after, ok)
	}
	if got := resultBody(t, srv2, v.ID); !bytes.Equal(got, want) {
		t.Fatalf("result after a restart:\n%s\nwant\n%s", got, want)
	}
	if v3 := submitView(t, srv2, body); !isAnswered(v3) || calls.Load() != 1 {
		t.Fatalf("resubmit after a restart: %+v after %d executor calls", v3, calls.Load())
	}
}

// TestAnsweredMatchesWorkerServed: for every registry protocol and mode
// at 2 caches, the job a submit answers from the cache reads exactly as
// the same hit served by a worker (the submit's probe bypassed): result
// body byte for byte, summary, verdict and the cached flag.
func TestAnsweredMatchesWorkerServed(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	var reqs []Request
	for _, e := range protogen.Builtins() {
		for _, mode := range protogen.Modes {
			reqs = append(reqs, Request{Kind: "verify", Protocol: e.Name, Mode: mode, Caches: 2})
		}
	}
	// queue submits every request past the probe, so a worker serves it,
	// and waits for all of them.
	queue := func() []JobView {
		var ids []string
		for _, req := range reqs {
			v, err := srv.co.submit(req, nil)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, v.ID)
		}
		views := make([]JobView, len(ids))
		for i, id := range ids {
			views[i] = waitSettled(t, srv, id)
		}
		return views
	}
	queue() // the cold runs fill the cache
	for i, served := range queue() {
		body, _ := json.Marshal(reqs[i])
		answered := submitView(t, srv, string(body))
		name := fmt.Sprintf("%s %s", reqs[i].Protocol, reqs[i].Mode)
		if served.Status != StatusDone || !served.Cached || served.Attempt != 1 || !isAnswered(answered) {
			t.Fatalf("%s: worker-served %+v, answered %+v", name, served, answered)
		}
		if answered.Summary != served.Summary || *answered.OK != *served.OK {
			t.Errorf("%s: answered %q ok=%v, worker-served %q ok=%v",
				name, answered.Summary, *answered.OK, served.Summary, *served.OK)
		}
		if a, w := resultBody(t, srv, answered.ID), resultBody(t, srv, served.ID); !bytes.Equal(a, w) {
			t.Errorf("%s: answered result\n%s\nworker-served\n%s", name, a, w)
		}
	}
}

// TestCacheCountsEachJobOnce: /healthz counts each cache-eligible verify
// job once, as a hit or a miss, however many times it was looked up —
// at submit, and again by its worker after a miss there. A copy sent
// right behind its original misses at submit and hits in its worker; a
// later resubmit hits at submit; a no_cache job counts nowhere.
func TestCacheCountsEachJobOnce(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	distinct := []string{
		verifyBody("MSI", "stalling", 2000),
		verifyBody("MSI", "nonstalling", 2000),
		verifyBody("MESI", "stalling", 2000),
	}
	var ids []string
	for _, body := range distinct {
		ids = append(ids, submitView(t, srv, body).ID, submitView(t, srv, body).ID)
	}
	for _, id := range ids {
		if v := waitSettled(t, srv, id); v.Status != StatusDone {
			t.Fatalf("job %s: %+v", id, v)
		}
	}
	const repeats = 4
	for i := 0; i < repeats; i++ {
		if v := submitView(t, srv, distinct[i%len(distinct)]); !isAnswered(v) {
			t.Fatalf("resubmit %d: %+v", i, v)
		}
	}
	var noCache Request
	if err := json.Unmarshal([]byte(distinct[0]), &noCache); err != nil {
		t.Fatal(err)
	}
	noCache.NoCache = true
	body, _ := json.Marshal(noCache)
	if v := waitSettled(t, srv, submitView(t, srv, string(body)).ID); v.Status != StatusDone || v.Cached {
		t.Fatalf("no_cache job: %+v", v)
	}
	hits, misses := cacheStats(t, srv)
	if misses != len(distinct) || hits != len(distinct)+repeats {
		t.Fatalf("cache counted %d hits and %d misses, want %d and %d", hits, misses, len(distinct)+repeats, len(distinct))
	}
}

// TestAnsweredJobBypassesFullQueue: a full queue refuses a job that
// would wait in it, not one the cache answers at submit.
func TestAnsweredJobBypassesFullQueue(t *testing.T) {
	eng := protogen.NewEngine(protogen.WithCacheDir(t.TempDir()))
	defer eng.Close()
	hit := verifyBody("MSI", "stalling", 500)
	var req Request
	if err := json.Unmarshal([]byte(hit), &req); err != nil {
		t.Fatal(err)
	}
	job, err := verifyJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Verify(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	// One worker, held busy until shutdown, leaves every later miss queued.
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Engine: eng,
		Executor: func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
			<-ctx.Done()
			return Outcome{Status: StatusCanceled}
		}})
	busy := submitView(t, srv, verifyBody("MSI", "nonstalling", 500))
	for v, _ := srv.co.view(busy.ID); v.Status != StatusRunning; v, _ = srv.co.view(busy.ID) {
		time.Sleep(time.Millisecond)
	}
	if v := submitView(t, srv, verifyBody("MESI", "stalling", 500)); v.Status != StatusQueued {
		t.Fatalf("a miss behind a busy worker: %+v", v)
	}
	if rec := do(srv, http.MethodPost, "/jobs", verifyBody("MOSI", "stalling", 500)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("a second miss: status %d, want 503 (queue full)", rec.Code)
	}
	if v := submitView(t, srv, hit); !isAnswered(v) {
		t.Fatalf("a hit behind a full queue: %+v", v)
	}
	if st := srv.co.snapshotStats(); st.Terminal != 1 {
		t.Fatalf("terminal transitions %d, want 1: %+v", st.Terminal, st)
	}
}

// TestUnparsableSourceFails: an inline source that does not parse is
// accepted, queued and fails in its worker with the parser's message,
// as it did before the submit looked in the cache.
func TestUnparsableSourceFails(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	const src = "protocol X {}"
	_, perr := protogen.Parse(src)
	if perr == nil {
		t.Fatalf("%q parses", src)
	}
	body, _ := json.Marshal(Request{Kind: "verify", Source: src, Caches: 2})
	v := submitView(t, srv, string(body))
	if v.Status != StatusQueued {
		t.Fatalf("202 for an unparsable source: %+v", v)
	}
	if v = waitSettled(t, srv, v.ID); v.Status != StatusFailed || v.Error != perr.Error() {
		t.Fatalf("unparsable source ended %s with %q, want failed with %q", v.Status, v.Error, perr.Error())
	}
}

// TestCappedVerifyNotOK: a verify job its state cap stops with no
// violation is done, but not ok. Its summary names the run INCOMPLETE.
func TestCappedVerifyNotOK(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	v := waitSettled(t, srv, submitView(t, srv, verifyBody("MSI", "nonstalling", 500)).ID)
	if v.Status != StatusDone || v.OK == nil || *v.OK {
		t.Fatalf("capped job: %+v, want done with ok false", v)
	}
	if !strings.Contains(v.Summary, "(capped) — INCOMPLETE") {
		t.Errorf("capped job's summary %q does not say INCOMPLETE", v.Summary)
	}
}
