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
	"testing"
	"time"

	"protogen/internal/bus"
	"protogen/internal/jobstore"
)

// fastFleetConfig is the tuning every fleet test shares: aggressive
// leases and sweeps so recovery paths run in milliseconds.
func fastFleetConfig() Config {
	return Config{
		Workers:         4,
		QueueDepth:      2048,
		MaxJobs:         8192,
		LeaseTTL:        300 * time.Millisecond,
		HeartbeatEvery:  75 * time.Millisecond,
		SweepEvery:      40 * time.Millisecond,
		RedispatchEvery: 800 * time.Millisecond,
		MaxAttempts:     4,
		RetryBase:       20 * time.Millisecond,
		RetryCap:        200 * time.Millisecond,
		Warn:            func(string, ...any) {}, // fleet tests inject faults; keep logs quiet
	}
}

// mix64 is the test-side seeded hash for deterministic fake work.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// flakyExec is a fast synthetic executor: per-seed deterministic
// runtime of 1–4ms and, for a transientRate fraction of jobs, an
// injected transient failure on the first attempt. It deliberately
// ignores ctx so crash-killed attempts run to completion and exercise
// the report-suppression path.
func flakyExec(transientRate float64) Executor {
	var mu sync.Mutex
	attempts := map[int64]int{}
	return func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		mu.Lock()
		attempts[req.Seed]++
		n := attempts[req.Seed]
		mu.Unlock()
		h := mix64(uint64(req.Seed))
		time.Sleep(time.Duration(1+h%4) * time.Millisecond)
		if n == 1 && float64(h>>32&0xffff)/0x10000 < transientRate {
			return Outcome{Status: StatusFailed, Err: fmt.Errorf("injected transient fault"), Transient: true}
		}
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

// TestTransientRetrySucceeds: a job whose first attempts fail
// transiently is retried with backoff and completes, with the failure
// chain preserved on the terminal record.
func TestTransientRetrySucceeds(t *testing.T) {
	failures := 2
	var mu sync.Mutex
	calls := 0
	cfg := fastFleetConfig()
	cfg.Workers = 1
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= failures {
			return Outcome{Status: StatusFailed, Err: fmt.Errorf("flaky dependency (call %d)", n), Transient: true}
		}
		ok := true
		return Outcome{Status: StatusDone, Summary: "recovered", OK: &ok, Result: map[string]bool{"ok": true}}
	}
	_, ts := newTestServer(t, cfg)
	id := submitSynthetic(t, ts.URL, 1)
	v := pollUntil(t, ts.URL+"/jobs/"+id, 30*time.Second, isSettled)
	if v.Status != StatusDone || v.OK == nil || !*v.OK {
		t.Fatalf("retried job: %+v", v)
	}
	if v.Attempt != failures+1 {
		t.Fatalf("attempt count %d, want %d", v.Attempt, failures+1)
	}
	if len(v.Failures) != failures || !strings.Contains(v.Failures[0], "attempt 1: flaky dependency") {
		t.Fatalf("failure chain: %v", v.Failures)
	}
}

// TestDeadLetterAfterMaxAttempts: a job that fails transiently on
// every attempt is parked in the dead-letter state with the whole
// failure chain, and its result endpoint reports the chain.
func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	cfg := fastFleetConfig()
	cfg.Workers = 1
	cfg.MaxAttempts = 3
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		return Outcome{Status: StatusFailed, Err: fmt.Errorf("always down"), Transient: true}
	}
	_, ts := newTestServer(t, cfg)
	id := submitSynthetic(t, ts.URL, 1)
	v := pollUntil(t, ts.URL+"/jobs/"+id, 30*time.Second, isSettled)
	if v.Status != StatusDead {
		t.Fatalf("status %s, want dead: %+v", v.Status, v)
	}
	if v.Attempt != cfg.MaxAttempts || len(v.Failures) != cfg.MaxAttempts {
		t.Fatalf("attempts %d failures %v, want %d of each", v.Attempt, v.Failures, cfg.MaxAttempts)
	}
	var res struct {
		Error    string   `json:"error"`
		Failures []string `json:"failures"`
	}
	if code := getJSON(t, ts.URL+"/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("dead-letter result status %d", code)
	}
	if !strings.Contains(res.Error, "always down") || len(res.Failures) != cfg.MaxAttempts {
		t.Fatalf("dead-letter result: %+v", res)
	}
}

// TestWorkerCrashRecovery: a worker killed mid-job never reports; the
// lease expires and the sweeper reassigns the attempt to a surviving
// worker, which completes it.
func TestWorkerCrashRecovery(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	first := true
	cfg := fastFleetConfig()
	cfg.Workers = 1
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		mu.Lock()
		me := first
		first = false
		mu.Unlock()
		if me {
			<-release // wedged first attempt: ignores ctx, never reports
		}
		ok := true
		return Outcome{Status: StatusDone, Summary: "second time lucky", OK: &ok}
	}
	srv, ts := newTestServer(t, cfg)
	defer close(release)
	id := submitSynthetic(t, ts.URL, 1)
	pollUntil(t, ts.URL+"/jobs/"+id, 10*time.Second, func(v JobView) bool {
		return v.Status == StatusRunning
	})
	if killed := srv.KillWorker(); killed == "" {
		t.Fatal("no worker to kill")
	}
	if err := srv.StartWorker(); err != nil {
		t.Fatal(err)
	}
	v := pollUntil(t, ts.URL+"/jobs/"+id, 30*time.Second, isSettled)
	if v.Status != StatusDone {
		t.Fatalf("after crash recovery: %+v", v)
	}
	if v.Attempt < 2 || len(v.Failures) == 0 || !strings.Contains(v.Failures[0], "lease expired") {
		t.Fatalf("expected a lease-expiry retry, got attempt %d failures %v", v.Attempt, v.Failures)
	}
}

// TestShutdownDeadlineReleasesLease is the restart-recovery
// acceptance test: an in-flight job that outlives the shutdown
// deadline must have its lease released back to the durable store so
// a restarted server re-runs it — crash-shaped shutdown loses no work.
func TestShutdownDeadlineReleasesLease(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	defer close(block)

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

	// The WAL must show the job released back to queued with the release
	// on its failure chain — not running (leaked lease), not lost.
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
	cfg.Executor = flakyExec(0)
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
	synthetic := flakyExec(0)
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
	cfg.Executor = flakyExec(0)
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

// TestChaosSmoke is the CI chaos gate: a 200-job burst over a seeded
// lossy/duplicating/delaying bus, with two worker crash-kills
// mid-burst, must settle with zero lost jobs and exactly one terminal
// transition per job.
func TestChaosSmoke(t *testing.T) {
	inner := bus.NewMem()
	chaotic := bus.Chaos(inner, bus.ChaosConfig{
		Seed:     42,
		Drop:     0.05,
		Dup:      0.05,
		MaxDelay: 2 * time.Millisecond,
	})
	cfg := fastFleetConfig()
	cfg.Bus = chaotic
	cfg.Executor = flakyExec(0.03)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer chaotic.Close() // after shutdown: Close tears down the inner bus too
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const jobs = 200
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		ids = append(ids, submitSynthetic(t, ts.URL, int64(i)))
		if i == jobs/3 || i == 2*jobs/3 {
			if killed := srv.KillWorker(); killed == "" {
				t.Fatal("no worker to kill")
			}
			if err := srv.StartWorker(); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := settledSet(t, ts.URL, ids, 60*time.Second)

	counts := map[Status]int{}
	for _, id := range ids {
		counts[got[id].Status]++
	}
	if counts[StatusFailed] != 0 || counts[StatusCanceled] != 0 {
		t.Fatalf("unexpected terminal mix: %v", counts)
	}
	stats := srv.co.snapshotStats()
	if stats.Terminal != jobs {
		t.Fatalf("terminal transitions %d, want exactly %d (duplicates or losses): %+v",
			stats.Terminal, jobs, stats)
	}
	t.Logf("chaos: outcomes %v, fleet %+v, bus %+v", counts, stats, chaotic.Stats())
}

// TestKillRestartLoad is the load acceptance test: a large concurrent
// burst over a durable store survives two worker crash-kills and one
// forced coordinator restart with zero lost jobs, zero duplicate
// terminal results, and bounded completion latency.
func TestKillRestartLoad(t *testing.T) {
	jobs := 1000
	if testing.Short() {
		jobs = 150
	}
	dir := t.TempDir()
	cfg := fastFleetConfig()
	cfg.Workers = 8
	cfg.StoreDir = dir
	cfg.Executor = flakyExec(0.05)

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	submitted := map[string]time.Time{}
	var ids []string
	firstBatch := jobs * 3 / 5
	for i := 0; i < firstBatch; i++ {
		id := submitSynthetic(t, ts.URL, int64(i))
		submitted[id] = time.Now()
		ids = append(ids, id)
		// Crash-kill two workers (with replacements) while the burst is
		// in full flight.
		if i == firstBatch/3 || i == 2*firstBatch/3 {
			if killed := srv.KillWorker(); killed == "" {
				t.Fatal("no worker to kill")
			}
			if err := srv.StartWorker(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Forced coordinator restart mid-flight: a near-zero deadline kills
	// the fleet and releases every running lease back to the WAL.
	ts.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	_ = srv.Shutdown(shutCtx) // deadline path expected; graceful is also legal
	cancel()
	stats1 := srv.co.snapshotStats()

	srv2, ts2 := newTestServer(t, cfg)
	for i := firstBatch; i < jobs; i++ {
		id := submitSynthetic(t, ts2.URL, int64(i))
		submitted[id] = time.Now()
		ids = append(ids, id)
	}
	got := settledSet(t, ts2.URL, ids, 120*time.Second)
	settledAt := time.Now()

	// Zero lost jobs, no unexplained terminals: with only transient
	// injected faults every job must end done (dead would mean the
	// budget was misaccounted, canceled/failed a protocol leak).
	counts := map[Status]int{}
	for _, id := range ids {
		counts[got[id].Status]++
	}
	if counts[StatusDone] != jobs {
		t.Fatalf("outcome mix %v, want %d done", counts, jobs)
	}

	// Zero duplicate terminal results: terminal transitions recorded
	// across both coordinator incarnations must equal the job count
	// exactly — each job settled once, first write wins.
	stats2 := srv2.co.snapshotStats()
	if total := stats1.Terminal + stats2.Terminal; total != jobs {
		t.Fatalf("terminal transitions %d (%+v then %+v), want exactly %d",
			total, stats1, stats2, jobs)
	}

	// p99 completion latency bound — generous, but it catches a fleet
	// that strands jobs until a slow redispatch sweep picks them up.
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
	t.Logf("load: %d jobs, outcomes %v, p99 %v, fleet %+v + %+v", jobs, counts, p99, stats1, stats2)
}
