package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"protogen/internal/core"
	"protogen/internal/jobstore"
)

// newTestServer boots a service and an httptest front end; both are
// torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

// postJSON submits a body and decodes the response into out.
func postJSON(t *testing.T, url string, body string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// pollUntil polls the job until pred holds or the deadline passes.
func pollUntil(t *testing.T, url string, deadline time.Duration, pred func(JobView) bool) JobView {
	t.Helper()
	var v JobView
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if code := getJSON(t, url, &v); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, code)
		}
		if pred(v) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job never reached wanted state; last: %+v", v)
	return v
}

func isTerminal(v JobView) bool {
	switch v.Status {
	case StatusDone, StatusFailed, StatusCanceled:
		return true
	}
	return false
}

// TestVerifyJobLifecycle is the acceptance path from the issue: submit a
// QuickConfig-scale MSI verify job, poll status with live progress,
// fetch the result, then resubmit the identical job and require a warm
// cache hit.
func TestVerifyJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	const body = `{"kind":"verify","protocol":"MSI","mode":"nonstalling","caches":2}`

	var sub JobView
	postJSON(t, ts.URL+"/jobs", body, http.StatusAccepted, &sub)
	if sub.ID == "" || sub.Status != StatusQueued || sub.Kind != "verify" {
		t.Fatalf("submit view: %+v", sub)
	}

	v := pollUntil(t, ts.URL+"/jobs/"+sub.ID, 60*time.Second, isTerminal)
	if v.Status != StatusDone {
		t.Fatalf("job finished %s (error %q), want done", v.Status, v.Error)
	}
	if v.OK == nil || !*v.OK {
		t.Fatalf("verify verdict not OK: %+v", v)
	}
	if v.Cached {
		t.Fatal("first run must not be cache-served")
	}
	if v.Progress == nil || v.Progress.Kind != "verify" || v.Progress.States == 0 {
		t.Fatalf("missing live progress snapshot: %+v", v.Progress)
	}
	if !strings.Contains(v.Summary, "PASS") {
		t.Fatalf("summary %q lacks verdict", v.Summary)
	}

	// Full result: the verify Result JSON with real exploration counts.
	var res struct {
		States, Edges, Depth int
		Complete             bool
	}
	if code := getJSON(t, ts.URL+"/jobs/"+sub.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if res.States == 0 || res.Edges == 0 || !res.Complete {
		t.Fatalf("result looks empty: %+v", res)
	}

	// Warm-cache resubmit: identical spec + config must be served from
	// the shared result cache with the same counts.
	var sub2 JobView
	postJSON(t, ts.URL+"/jobs", body, http.StatusAccepted, &sub2)
	v2 := pollUntil(t, ts.URL+"/jobs/"+sub2.ID, 30*time.Second, isTerminal)
	if v2.Status != StatusDone || !v2.Cached {
		t.Fatalf("resubmit not cache-served: %+v", v2)
	}
	var res2 struct{ States, Edges, Depth int }
	getJSON(t, ts.URL+"/jobs/"+sub2.ID+"/result", &res2)
	if res2.States != res.States || res2.Edges != res.Edges || res2.Depth != res.Depth {
		t.Fatalf("cached result drifted: %+v vs %+v", res2, res)
	}

	// Health reflects the shared cache.
	var health struct {
		Status string `json:"status"`
		Cache  struct {
			Entries int `json:"entries"`
			Hits    int `json:"hits"`
		} `json:"cache"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || health.Cache.Entries == 0 || health.Cache.Hits == 0 {
		t.Fatalf("health: %+v", health)
	}
}

// TestTSOCCVerifyJob: a verify job on TSO_CC passes in every generation
// mode with nothing in the request about invariants — its acquire fences
// exempt it from SWMR and the data-value invariant, so the checker holds
// it to deadlock freedom and quiescence.
func TestTSOCCVerifyJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, mode := range core.Modes {
		var sub JobView
		postJSON(t, ts.URL+"/jobs", `{"kind":"verify","protocol":"TSO_CC","caches":2,"mode":"`+mode+`"}`, http.StatusAccepted, &sub)
		v := pollUntil(t, ts.URL+"/jobs/"+sub.ID, 60*time.Second, isTerminal)
		if v.Status != StatusDone || v.OK == nil || !*v.OK {
			t.Errorf("TSO_CC %s: %s %q %q", mode, v.Status, v.Summary, v.Error)
		}
	}
}

// TestFuzzJobProgress runs a small campaign and checks the cumulative
// fuzz progress snapshot and report wiring.
func TestFuzzJobProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var sub JobView
	postJSON(t, ts.URL+"/jobs", `{"kind":"fuzz","first":0,"last":4,"sim_steps":300,"shrink":false}`,
		http.StatusAccepted, &sub)
	v := pollUntil(t, ts.URL+"/jobs/"+sub.ID, 120*time.Second, isTerminal)
	if v.Status != StatusDone {
		t.Fatalf("fuzz job finished %s (error %q)", v.Status, v.Error)
	}
	if v.Progress == nil || v.Progress.Kind != "fuzz" || v.Progress.SeedsDone != 4 {
		t.Fatalf("fuzz progress: %+v", v.Progress)
	}
	var rep struct {
		Pass       int  `json:"pass"`
		Fail       int  `json:"fail"`
		SeedsTotal int  `json:"seeds_total"`
		Canceled   bool `json:"canceled"`
	}
	getJSON(t, ts.URL+"/jobs/"+sub.ID+"/result", &rep)
	if rep.Pass != 4 || rep.Fail != 0 || rep.SeedsTotal != 4 || rep.Canceled {
		t.Fatalf("fuzz report: %+v", rep)
	}
}

// TestCancelRunningJob cancels a large verification mid-flight and
// requires a prompt canceled status with a partial result.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var sub JobView
	// 3-cache MSI at full depth runs long enough to catch mid-flight.
	postJSON(t, ts.URL+"/jobs", `{"kind":"verify","protocol":"MSI","mode":"nonstalling","caches":3}`,
		http.StatusAccepted, &sub)
	pollUntil(t, ts.URL+"/jobs/"+sub.ID, 30*time.Second, func(v JobView) bool {
		return v.Status == StatusRunning && v.Progress != nil
	})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sub.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	v := pollUntil(t, ts.URL+"/jobs/"+sub.ID, 30*time.Second, isTerminal)
	if v.Status != StatusCanceled || !v.Canceled {
		t.Fatalf("cancel outcome: %+v", v)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v — not observed at a level boundary?", elapsed)
	}
	var res struct {
		States   int
		Canceled bool
	}
	getJSON(t, ts.URL+"/jobs/"+sub.ID+"/result", &res)
	if !res.Canceled || res.States == 0 {
		t.Fatalf("partial result: %+v", res)
	}
}

// TestCancelQueuedJob cancels a job before any worker picks it up.
func TestCancelQueuedJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	// Occupy the single worker so the second job stays queued.
	var blocker, queued JobView
	postJSON(t, ts.URL+"/jobs", `{"kind":"verify","protocol":"MOSI","mode":"nonstalling","caches":3}`,
		http.StatusAccepted, &blocker)
	postJSON(t, ts.URL+"/jobs", `{"kind":"verify","protocol":"MSI","caches":2}`,
		http.StatusAccepted, &queued)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	var after JobView
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after.Status != StatusCanceled {
		t.Fatalf("queued cancel: %+v", after)
	}
	// Unblock the worker promptly.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker.ID, nil)
	if _, err := http.DefaultClient.Do(req2); err != nil {
		t.Fatal(err)
	}
	_ = srv
}

// TestDeleteFinishedJobFreesRecord: DELETE on a terminal job removes it
// (and its retained result) — the client-driven half of the retention
// policy.
func TestDeleteFinishedJobFreesRecord(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var sub JobView
	postJSON(t, ts.URL+"/jobs", `{"kind":"verify","protocol":"MSI","caches":2}`, http.StatusAccepted, &sub)
	pollUntil(t, ts.URL+"/jobs/"+sub.ID, 60*time.Second, isTerminal)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/jobs/"+sub.ID, nil); code != http.StatusNotFound {
		t.Fatalf("deleted job still present: status %d", code)
	}
}

// TestFinishedJobEviction: the MaxJobs cap evicts the oldest finished
// jobs on submit, bounding the server's memory over a long life.
func TestFinishedJobEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxJobs: 2})
	ids := make([]string, 4)
	for i := range ids {
		var sub JobView
		postJSON(t, ts.URL+"/jobs", `{"kind":"verify","protocol":"MSI","caches":2,"mode":"stalling"}`,
			http.StatusAccepted, &sub)
		ids[i] = sub.ID
		pollUntil(t, ts.URL+"/jobs/"+sub.ID, 60*time.Second, isTerminal)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list.Jobs) > 2 {
		t.Fatalf("retained %d job records, cap is 2", len(list.Jobs))
	}
	// The newest job survives; the oldest was evicted.
	if code := getJSON(t, ts.URL+"/jobs/"+ids[len(ids)-1], nil); code != http.StatusOK {
		t.Errorf("newest job evicted: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Errorf("oldest finished job not evicted: status %d", code)
	}
}

// TestSubmitValidation rejects malformed jobs with 400s.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"kind":"nope"}`,
		`{"kind":"verify"}`,
		`{"kind":"lint"}`,
		`{"kind":"fuzz","first":5,"last":5}`,
		`{"kind":"simulate","protocol":"MSI"}`,
		`{"kind":"verify","protocol":"MSI","source":"protocol X {}"}`,
		`{"kind":"verify","protocol":"MSI","bogus_field":1}`,
		`not json`,
	} {
		postJSON(t, ts.URL+"/jobs", body, http.StatusBadRequest, nil)
	}
	if code := getJSON(t, ts.URL+"/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
}

// TestSubmitCachesBound: a cache count above the checker's bound is a
// 400 for every job kind that takes one, and the refused job never
// reaches the store — one such verify would pin a worker for hours.
// The bound itself is accepted.
func TestSubmitCachesBound(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	start := time.Now()
	for _, body := range []string{
		`{"kind":"verify","protocol":"MSI","caches":9}`,
		`{"kind":"fuzz","first":0,"last":1,"caches":9}`,
		`{"kind":"simulate","protocol":"MSI","workload":"contended","caches":9}`,
		`{"kind":"litmus","protocol":"MSI","caches":9}`,
	} {
		var refusal struct {
			Error string `json:"error"`
		}
		postJSON(t, ts.URL+"/jobs", body, http.StatusBadRequest, &refusal)
		if !strings.Contains(refusal.Error, "9 caches") {
			t.Errorf("%s: refusal %q does not name the bound", body, refusal.Error)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("four refusals took %v", d)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, ts.URL+"/jobs", &list)
	if st, err := os.Stat(filepath.Join(dir, jobstore.WALName)); err != nil || st.Size() != 0 || len(list.Jobs) != 0 {
		t.Fatalf("refused jobs reached the store: %d listed, WAL %v (err %v)", len(list.Jobs), st, err)
	}

	var sub JobView
	postJSON(t, ts.URL+"/jobs", `{"kind":"simulate","protocol":"MSI","workload":"contended","caches":8,"steps":200}`, http.StatusAccepted, &sub)
	if v := pollUntil(t, ts.URL+"/jobs/"+sub.ID, 30*time.Second, isTerminal); v.Status != StatusDone {
		t.Fatalf("8-cache job: %+v", v)
	}
}

// dirtyLintSrc is an MI spec whose eviction half was deleted: PutM and
// Put_Ack are declared but the handshake is dead, so the spec-layer
// lint must come back with warnings.
const dirtyLintSrc = `
protocol T;
network ordered;

message request GetM;
message request put PutM;
message forward Fwd_GetM Put_Ack;
message response Data;

machine cache {
  states I M;
  init I;
  data block;
}

machine directory {
  states I M;
  init I;
  data block;
  id owner;
}

architecture cache {
  process (I, store) {
    send GetM to dir;
    await {
      when Data { copydata; state = M; }
    }
  }
  process (M, store) { hit; }
  process (M, Fwd_GetM) {
    send Data to req with data;
    state = I;
  }
}

architecture directory {
  process (I, GetM) {
    send Data to src with data;
    owner = src;
    state = M;
  }
  process (M, GetM) {
    send Fwd_GetM to owner req src;
    owner = src;
  }
  process (M, PutM) from owner {
    writeback;
    owner = none;
    send Put_Ack to src;
    state = I;
  }
}
`

// TestLintJob runs the static analyzer as a service job: the registry
// MSI must lint clean across the spec layer and all three generated
// modes, and a spec with a dead handshake half must come back not-OK.
func TestLintJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	var sub JobView
	postJSON(t, ts.URL+"/jobs", `{"kind":"lint","protocol":"MSI"}`, http.StatusAccepted, &sub)
	v := pollUntil(t, ts.URL+"/jobs/"+sub.ID, 60*time.Second, isTerminal)
	if v.Status != StatusDone || v.OK == nil || !*v.OK {
		t.Fatalf("registry lint job: %+v", v)
	}
	if !strings.Contains(v.Summary, "clean") {
		t.Fatalf("summary %q lacks clean verdict", v.Summary)
	}
	var res struct {
		Reports  []json.RawMessage `json:"reports"`
		Errors   int               `json:"errors"`
		Warnings int               `json:"warnings"`
	}
	if code := getJSON(t, ts.URL+"/jobs/"+sub.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if len(res.Reports) != 4 || res.Errors != 0 || res.Warnings != 0 {
		t.Fatalf("lint result: %d reports, %d errors, %d warnings",
			len(res.Reports), res.Errors, res.Warnings)
	}

	// Dirty inline source, spec layer only.
	body, err := json.Marshal(Request{Kind: "lint", Source: dirtyLintSrc, SpecOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var sub2 JobView
	postJSON(t, ts.URL+"/jobs", string(body), http.StatusAccepted, &sub2)
	v2 := pollUntil(t, ts.URL+"/jobs/"+sub2.ID, 60*time.Second, isTerminal)
	if v2.Status != StatusDone || v2.OK == nil || *v2.OK {
		t.Fatalf("dirty lint job should finish done and not-OK: %+v", v2)
	}
	var res2 struct {
		Reports  []json.RawMessage `json:"reports"`
		Warnings int               `json:"warnings"`
	}
	getJSON(t, ts.URL+"/jobs/"+sub2.ID+"/result", &res2)
	if len(res2.Reports) != 1 || res2.Warnings == 0 {
		t.Fatalf("dirty spec-only result: %d reports, %d warnings",
			len(res2.Reports), res2.Warnings)
	}
}

// TestLitmusJob runs the weak-memory oracle as a service job: a small
// exhaustive suite on the registry MSI must finish OK with exact
// outcome sets, and the unvalidated kind must be rejected.
func TestLitmusJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	var sub JobView
	postJSON(t, ts.URL+"/jobs",
		`{"kind":"litmus","protocol":"MSI","tests":["MP","SB","CoRR"]}`,
		http.StatusAccepted, &sub)
	v := pollUntil(t, ts.URL+"/jobs/"+sub.ID, 120*time.Second, isTerminal)
	if v.Status != StatusDone || v.OK == nil || !*v.OK {
		t.Fatalf("litmus job: %+v", v)
	}
	if !strings.Contains(v.Summary, "3 tests, 0 failing") {
		t.Fatalf("summary %q lacks oracle verdict", v.Summary)
	}
	var rep struct {
		Axiom   string `json:"axiom"`
		Results []struct {
			Test     string            `json:"test"`
			Complete bool              `json:"complete"`
			Outcomes []json.RawMessage `json:"outcomes"`
		} `json:"results"`
	}
	if code := getJSON(t, ts.URL+"/jobs/"+sub.ID+"/result", &rep); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if rep.Axiom != "sc" || len(rep.Results) != 3 {
		t.Fatalf("litmus report: axiom %q, %d results", rep.Axiom, len(rep.Results))
	}
	for _, r := range rep.Results {
		if !r.Complete || len(r.Outcomes) == 0 {
			t.Fatalf("test %s: complete=%v outcomes=%d", r.Test, r.Complete, len(r.Outcomes))
		}
	}

	postJSON(t, ts.URL+"/jobs", `{"kind":"litmus"}`, http.StatusBadRequest, nil)
}

// TestListAndCorpusEndpoints smoke-tests the remaining read endpoints.
func TestListAndCorpusEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CorpusDir: t.TempDir()})
	var sub JobView
	postJSON(t, ts.URL+"/jobs", `{"kind":"simulate","protocol":"MSI","workload":"contended","steps":2000,"caches":2}`,
		http.StatusAccepted, &sub)
	v := pollUntil(t, ts.URL+"/jobs/"+sub.ID, 60*time.Second, isTerminal)
	if v.Status != StatusDone || v.OK == nil || !*v.OK {
		t.Fatalf("simulate job: %+v", v)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Fatalf("list: %+v", list)
	}
	var corpus struct {
		Entries []string `json:"entries"`
	}
	getJSON(t, ts.URL+"/corpus", &corpus)
	if corpus.Entries == nil {
		t.Fatal("corpus listing absent")
	}
}
