package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"protogen/internal/jobstore"
)

// fastFleetConfig is the tuning every fleet test shares.
func fastFleetConfig() Config {
	return Config{
		Workers:     4,
		QueueDepth:  2048,
		MaxJobs:     8192,
		MaxAttempts: 4,
		Warn:        func(string, ...any) {}, // fleet tests force restarts; keep logs quiet
	}
}

// mix64 is the test-side seeded hash for deterministic fake work.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// syntheticExec is a fast synthetic executor with a per-seed
// deterministic runtime of 1–4ms. It deliberately ignores ctx, so an
// attempt a shutdown deadline released runs to completion and reports
// an outcome that must be dropped.
func syntheticExec() Executor {
	return func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		time.Sleep(time.Duration(1+mix64(uint64(req.Seed))%4) * time.Millisecond)
		ok := true
		return Outcome{
			Status:  StatusDone,
			Summary: fmt.Sprintf("synthetic seed %d", req.Seed),
			OK:      &ok,
			Result:  map[string]int64{"seed": req.Seed},
		}
	}
}

// submitSynthetic posts one synthetic verify-shaped job with the given
// seed and returns its id.
func submitSynthetic(t *testing.T, url string, seed int64) string {
	t.Helper()
	var sub JobView
	postJSON(t, url+"/jobs",
		fmt.Sprintf(`{"kind":"verify","protocol":"MSI","seed":%d}`, seed),
		http.StatusAccepted, &sub)
	return sub.ID
}

// isSettled includes the dead-letter state next to the classic
// terminal trio.
func isSettled(v JobView) bool { return isTerminal(v) || v.Status == StatusDead }

// explode is the executor body TestExecutorPanicFails panics in; the
// failure chain's stack must name it.
func explode(req Request) Outcome {
	panic(fmt.Sprintf("checker bug on seed %d", req.Seed))
}

// TestExecutorPanicFails: a panic is a bug, not bad luck. The job fails
// on its first attempt and is not run again; the error carries the
// panic value and the failure chain the stack that names the panicking
// function.
func TestExecutorPanicFails(t *testing.T) {
	var calls atomic.Int64
	cfg := fastFleetConfig()
	cfg.Workers = 1
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		calls.Add(1)
		return explode(req)
	}
	_, ts := newTestServer(t, cfg)
	id := submitSynthetic(t, ts.URL, 9)
	v := pollUntil(t, ts.URL+"/jobs/"+id, 10*time.Second, isSettled)
	if v.Status != StatusFailed || v.Attempt != 1 || calls.Load() != 1 {
		t.Fatalf("panicking job ended %s on attempt %d after %d executor calls, want failed on attempt 1 after 1: %+v",
			v.Status, v.Attempt, calls.Load(), v)
	}
	if !strings.Contains(v.Error, "checker bug on seed 9") {
		t.Fatalf("error %q lacks the panic value", v.Error)
	}
	if len(v.Failures) != 1 || !strings.HasPrefix(v.Failures[0], "attempt 1: ") ||
		!strings.Contains(v.Failures[0], "service.explode(") {
		t.Fatalf("failure chain holds no stack naming the panicking function: %q", v.Failures)
	}
}

// bootStore writes recs to a fresh WAL directory, as a process that
// died with them there would have left it.
func bootStore(t *testing.T, recs ...jobstore.Record) string {
	t.Helper()
	dir := t.TempDir()
	w, err := jobstore.OpenWAL(dir, jobstore.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runningRecord is a job the log says was running attempt n.
func runningRecord(id string, n int) jobstore.Record {
	now := time.Now()
	return jobstore.Record{
		ID: id, Kind: "verify", Request: []byte(`{"kind":"verify","protocol":"MSI","seed":1}`),
		State: jobstore.StateRunning, Attempt: n, Submitted: now, Updated: now, Started: &now,
	}
}

// TestWorkerCrashRecovery: a job the log says was running when the
// process died is rerun at once as its next attempt, with the
// interruption on its failure chain; a running job whose cancel was
// recorded resolves to canceled instead and never reaches the executor.
func TestWorkerCrashRecovery(t *testing.T) {
	interrupted := runningRecord("job-1", 1)
	canceled := runningRecord("job-2", 1)
	canceled.CancelRequested = true
	cfg := fastFleetConfig()
	cfg.Workers = 1
	cfg.StoreDir = bootStore(t, interrupted, canceled)
	var calls atomic.Int64
	synthetic := syntheticExec()
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		calls.Add(1)
		return synthetic(ctx, req, onProgress)
	}
	booted := time.Now()
	_, ts := newTestServer(t, cfg)

	v := pollUntil(t, ts.URL+"/jobs/job-1", 10*time.Second, isSettled)
	if v.Status != StatusDone || v.Attempt != 2 {
		t.Fatalf("interrupted job ended %s on attempt %d, want done on attempt 2: %+v", v.Status, v.Attempt, v)
	}
	if len(v.Failures) != 1 || v.Failures[0] != "attempt 1: interrupted by restart" {
		t.Fatalf("failure chain: %q", v.Failures)
	}
	// Requeued at boot, not after a lease or a backoff ran out.
	if took := v.Finished.Sub(booted); took > time.Second {
		t.Fatalf("the rerun finished %v after boot", took)
	}
	c := pollUntil(t, ts.URL+"/jobs/job-2", 10*time.Second, isSettled)
	if c.Status != StatusCanceled || !c.Canceled || calls.Load() != 1 {
		t.Fatalf("canceled running job: %+v after %d executor calls", c, calls.Load())
	}
	if id := submitSynthetic(t, ts.URL, 2); id != "job-3" {
		t.Fatalf("next id %s, want job-3", id)
	}
}

// TestDeadLetterAfterMaxAttempts: a job a restart interrupted on its
// last allowed attempt boots dead, with the whole failure chain and without
// running again; one attempt short of it, the job reruns.
func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	cfg := fastFleetConfig()
	cfg.Workers = 1
	cfg.MaxAttempts = 3
	last := runningRecord("job-1", 3)
	last.Failures = []string{"attempt 1: interrupted by restart", "attempt 2: interrupted by restart"}
	cfg.StoreDir = bootStore(t, last, runningRecord("job-2", 2))
	var calls atomic.Int64
	synthetic := syntheticExec()
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		calls.Add(1)
		return synthetic(ctx, req, onProgress)
	}
	_, ts := newTestServer(t, cfg)

	v := pollUntil(t, ts.URL+"/jobs/job-1", 10*time.Second, isSettled)
	if v.Status != StatusDead || v.Attempt != cfg.MaxAttempts || len(v.Failures) != cfg.MaxAttempts {
		t.Fatalf("status %s attempt %d failures %q, want dead after %d", v.Status, v.Attempt, v.Failures, cfg.MaxAttempts)
	}
	var res struct {
		Error    string   `json:"error"`
		Failures []string `json:"failures"`
	}
	if code := getJSON(t, ts.URL+"/jobs/job-1/result", &res); code != http.StatusOK {
		t.Fatalf("dead-letter result status %d", code)
	}
	if res.Error != "attempt 3: interrupted by restart" || len(res.Failures) != cfg.MaxAttempts {
		t.Fatalf("dead-letter result: %+v", res)
	}
	if v := pollUntil(t, ts.URL+"/jobs/job-2", 10*time.Second, isSettled); v.Status != StatusDone || v.Attempt != 3 {
		t.Fatalf("job one attempt short of the limit: %+v", v)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times, want once (job-2)", calls.Load())
	}
}

// TestShutdownDeadlineReleasesRunning is the restart-recovery
// acceptance test: an in-flight job that outlives the shutdown deadline
// must be released back to queued in the durable store, so a restarted
// server reruns it — a forced shutdown loses no work — and the outcome
// it reports late must be dropped, not written.
func TestShutdownDeadlineReleasesRunning(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	defer unblock()

	cfg := fastFleetConfig()
	cfg.Workers = 1
	cfg.StoreDir = dir
	first := true
	var mu sync.Mutex
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		mu.Lock()
		me := first
		first = false
		mu.Unlock()
		if me {
			<-block // wedged: ignores ctx, outlives any deadline
		}
		ok := true
		return Outcome{Status: StatusDone, Summary: "after restart", OK: &ok, Result: map[string]bool{"rerun": true}}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	id := submitSynthetic(t, ts.URL, 1)
	pollUntil(t, ts.URL+"/jobs/"+id, 10*time.Second, func(v JobView) bool {
		return v.Status == StatusRunning
	})
	ts.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(shutCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline shutdown returned %v, want DeadlineExceeded", err)
	}
	// The wedged attempt now reports done, too late: it is dropped.
	unblock()
	srv.co.runners.Wait()
	if v, _ := srv.co.view(id); v.Status != StatusQueued || srv.co.snapshotStats().Terminal != 0 {
		t.Fatalf("a released attempt's late outcome was recorded: %+v", v)
	}

	// The WAL must show the job released back to queued with the release
	// on its failure chain — not running, not done, not lost.
	w, err := jobstore.OpenWAL(dir, jobstore.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != id {
		t.Fatalf("WAL after deadline shutdown: %+v", recs)
	}
	if recs[0].State != jobstore.StateQueued {
		t.Fatalf("released job state %s, want queued: %+v", recs[0].State, recs[0])
	}
	if len(recs[0].Failures) == 0 || !strings.Contains(recs[0].Failures[0], "shutdown deadline") {
		t.Fatalf("release not on the failure chain: %v", recs[0].Failures)
	}

	// A restarted server on the same store must replay and re-run it.
	srv2, ts2 := newTestServer(t, cfg)
	_ = srv2
	v := pollUntil(t, ts2.URL+"/jobs/"+id, 30*time.Second, isSettled)
	if v.Status != StatusDone || v.Summary != "after restart" {
		t.Fatalf("restarted server did not re-run the job: %+v", v)
	}
	var res map[string]bool
	if code := getJSON(t, ts2.URL+"/jobs/"+id+"/result", &res); code != http.StatusOK || !res["rerun"] {
		t.Fatalf("re-run result: %d %+v", code, res)
	}
}

// TestResultDurableAcrossRestart: a graceful restart serves finished
// results straight from the replayed store.
func TestResultDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := fastFleetConfig()
	cfg.Workers = 2
	cfg.StoreDir = dir
	cfg.Executor = syntheticExec()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	id := submitSynthetic(t, ts.URL, 7)
	pollUntil(t, ts.URL+"/jobs/"+id, 30*time.Second, isSettled)
	ts.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, cfg)
	var v JobView
	if code := getJSON(t, ts2.URL+"/jobs/"+id, &v); code != http.StatusOK {
		t.Fatalf("replayed job status %d", code)
	}
	if v.Status != StatusDone || v.OK == nil || !*v.OK {
		t.Fatalf("replayed job: %+v", v)
	}
	var res map[string]int64
	if code := getJSON(t, ts2.URL+"/jobs/"+id+"/result", &res); code != http.StatusOK || res["seed"] != 7 {
		t.Fatalf("replayed result: %d %+v", code, res)
	}
}

// TestUnreadableStoredRequestFails: a queued job whose persisted
// request no longer decodes (a log written by another version) ends
// failed with an error that names it and says why — on the first
// attempt, without reaching the executor.
func TestUnreadableStoredRequestFails(t *testing.T) {
	mem := jobstore.NewMem()
	now := time.Now()
	if err := mem.Put(jobstore.Record{
		ID: "job-7", Kind: "verify", Request: []byte(`{"kind":["verify"],"protocol":"MSI"}`),
		State: jobstore.StateQueued, Submitted: now, Updated: now,
	}); err != nil {
		t.Fatal(err)
	}
	cfg := fastFleetConfig()
	cfg.Workers = 1
	cfg.Store = mem
	synthetic := syntheticExec()
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		if req.Seed != 1 {
			t.Errorf("executor ran a job whose request does not decode: %+v", req)
		}
		return synthetic(ctx, req, onProgress)
	}
	_, ts := newTestServer(t, cfg)

	v := pollUntil(t, ts.URL+"/jobs/job-7", 10*time.Second, isSettled)
	if v.Status != StatusFailed || v.Attempt != 1 {
		t.Fatalf("job-7 ended %s after %d attempts, want failed after 1: %+v", v.Status, v.Attempt, v)
	}
	if !strings.Contains(v.Error, "job job-7: stored request unreadable") || strings.Contains(v.Error, "unknown job kind") {
		t.Fatalf("error does not name the job and the cause: %q", v.Error)
	}
	// The id counter still resumes past the replayed job.
	if id := submitSynthetic(t, ts.URL, 1); id != "job-8" {
		t.Fatalf("next id %s, want job-8", id)
	}
}

// TestBootReportsDamagedLog: a log line that is not an entry costs the
// record version it held, and the operator hears about it at boot —
// count and byte offset — while the rest of the log is served.
func TestBootReportsDamagedLog(t *testing.T) {
	dir := t.TempDir()
	w, err := jobstore.OpenWAL(dir, jobstore.WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		if err := w.Put(jobstore.Record{ID: id, Kind: "verify", State: jobstore.StateCanceled, Submitted: now, Updated: now}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, jobstore.WALName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := strings.IndexByte(string(data), '\n') + 1
	data[first+1] = '!' // job-2's line no longer parses
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var warnings []string
	cfg := fastFleetConfig()
	cfg.Workers = 1
	cfg.StoreDir = dir
	cfg.Warn = func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	_, ts := newTestServer(t, cfg)

	var list struct{ Jobs []JobView }
	if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK || len(list.Jobs) != 2 ||
		list.Jobs[0].ID != "job-1" || list.Jobs[1].ID != "job-3" {
		t.Fatalf("jobs after a damaged boot: %d %+v", code, list.Jobs)
	}
	mu.Lock()
	defer mu.Unlock()
	want := fmt.Sprintf("1 unreadable line(s) skipped, the first at byte %d", first)
	for _, msg := range warnings {
		if strings.Contains(msg, want) {
			return
		}
	}
	t.Fatalf("no boot warning containing %q in %q", want, warnings)
}

// TestHealthzDegradedStore: when the job store stops persisting, the
// server refuses new work (503 submits) and healthz reports degraded
// with a 503 — honest readiness instead of the old unconditional 200.
func TestHealthzDegradedStore(t *testing.T) {
	mem := jobstore.NewMem()
	cfg := fastFleetConfig()
	cfg.Workers = 1
	cfg.Store = mem
	cfg.Executor = syntheticExec()
	_, ts := newTestServer(t, cfg)

	submitSynthetic(t, ts.URL, 1)
	var health struct {
		Status string `json:"status"`
		Queue  struct {
			Capacity int `json:"capacity"`
		} `json:"queue"`
		StoreError string `json:"store_error"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthy server: %d %+v", code, health)
	}
	if health.Queue.Capacity != cfg.QueueDepth {
		t.Fatalf("queue capacity %d, want %d", health.Queue.Capacity, cfg.QueueDepth)
	}

	mem.Fail(fmt.Errorf("disk full"))
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusServiceUnavailable ||
		health.Status != "degraded" || !strings.Contains(health.StoreError, "disk full") {
		t.Fatalf("degraded server: %d %+v", code, health)
	}
	postJSON(t, ts.URL+"/jobs", `{"kind":"verify","protocol":"MSI"}`, http.StatusServiceUnavailable, nil)

	mem.Fail(nil)
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healed server: %d %+v", code, health)
	}
}

// settledSet polls GET /jobs until every id in want is terminal (or
// dead), returning the final views; fails the test at the deadline.
func settledSet(t *testing.T, url string, want []string, deadline time.Duration) map[string]JobView {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		var list struct {
			Jobs []JobView `json:"jobs"`
		}
		if code := getJSON(t, url+"/jobs", &list); code != http.StatusOK {
			t.Fatalf("list: status %d", code)
		}
		got := map[string]JobView{}
		for _, v := range list.Jobs {
			got[v.ID] = v
		}
		allSettled := true
		for _, id := range want {
			v, ok := got[id]
			if !ok {
				t.Fatalf("job %s lost: absent from the list", id)
			}
			if !isSettled(v) {
				allSettled = false
				break
			}
		}
		if allSettled {
			return got
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("jobs not settled after %v", deadline)
	return nil
}

// TestKillRestartLoad is the load acceptance test: a large concurrent
// burst over a durable store survives two forced restarts, three server
// incarnations in all, with zero lost jobs, zero duplicate terminal
// results, and bounded completion latency.
func TestKillRestartLoad(t *testing.T) {
	jobs := 1000
	if testing.Short() {
		jobs = 150
	}
	dir := t.TempDir()
	cfg := fastFleetConfig()
	cfg.Workers = 8
	cfg.StoreDir = dir
	cfg.Executor = syntheticExec()

	var (
		srv   *Server
		ts    *httptest.Server
		stats []fleetStats
	)
	boot := func() {
		var err error
		if srv, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		ts = httptest.NewServer(srv)
	}
	// stop shuts the incarnation down within deadline and records its
	// counters once every late outcome is in (and dropped).
	stop := func(deadline time.Duration) {
		ts.Close()
		shutCtx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		_ = srv.Shutdown(shutCtx) // a forced restart expects the deadline path; graceful is also legal
		srv.co.runners.Wait()
		stats = append(stats, srv.co.snapshotStats())
	}
	// restart forces a restart mid-flight: a near-zero deadline releases
	// every running job back to the WAL, and a new server replays it.
	restart := func() {
		stop(time.Millisecond)
		boot()
	}
	boot()
	submitted := map[string]time.Time{}
	var ids []string
	firstBatch := jobs * 3 / 5
	for i := 0; i < jobs; i++ {
		if i == firstBatch/2 || i == firstBatch {
			restart()
		}
		id := submitSynthetic(t, ts.URL, int64(i))
		submitted[id] = time.Now()
		ids = append(ids, id)
	}
	got := settledSet(t, ts.URL, ids, 120*time.Second)
	settledAt := time.Now()

	// Zero lost jobs, no unexplained terminals: every job must end done
	// (dead would mean the restarts were charged, canceled/failed a
	// leak).
	counts := map[Status]int{}
	for _, id := range ids {
		counts[got[id].Status]++
	}
	if counts[StatusDone] != jobs {
		t.Fatalf("outcome mix %v, want %d done", counts, jobs)
	}

	// Zero duplicate terminal results: terminal transitions recorded
	// across the three incarnations must equal the job count exactly —
	// each job settled once, and no released attempt's late outcome was
	// recorded.
	stop(30 * time.Second)
	total := 0
	for _, st := range stats {
		total += st.Terminal
	}
	if total != jobs {
		t.Fatalf("terminal transitions %d (%+v), want exactly %d", total, stats, jobs)
	}

	// p99 completion latency bound — generous, but it catches a server
	// that strands queued jobs.
	lat := make([]time.Duration, 0, len(ids))
	for _, id := range ids {
		v := got[id]
		end := settledAt
		if v.Finished != nil {
			end = *v.Finished
		}
		lat = append(lat, end.Sub(submitted[id]))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	if p99 > 30*time.Second {
		t.Fatalf("p99 completion latency %v exceeds bound", p99)
	}
	t.Logf("load: %d jobs, outcomes %v, p99 %v, stats %+v", jobs, counts, p99, stats)
}
