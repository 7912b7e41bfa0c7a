package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"protogen"
	"protogen/internal/protocols"
	"protogen/internal/service"
)

// serviceWorkload drives an in-process verification service with cached
// work, so the fleet itself is what is timed.
func serviceWorkload() *workload {
	return &workload{
		name: "service-burst",
		why: "every verify is a result-cache hit, so service, bus, jobstore and the result cache are the whole cost " +
			"and the checker does nothing: the fleet-overhead number",
		setupReps:   3,
		minRounds:   1,
		tracedPairs: 4,
		tailPct:     99, // ~10,000 samples a run: a hundred lie beyond p99
		setup:       setupService,
	}
}

const (
	serviceClients = 2
	serviceWorkers = 2
	pollEvery      = 200 * time.Microsecond
	jobTimeLimit   = 30 * time.Second
)

var (
	serviceModes = []string{"nonstalling", "stalling"}
	litmusTests  = []string{"MP", "SB"}
)

// jobSpec is one request of the mix and its wire form.
type jobSpec struct {
	req  service.Request
	body []byte
}

// jobFacts is what a traced job leaves besides its spans.
type jobFacts struct {
	queueWait, exec, reportLag float64
	polls, retries             int
	cached                     bool
}

type svc struct {
	e     *env
	dir   string
	srv   *service.Server
	block []jobSpec // one round's jobs; the mix is exact

	roundOpsPerS []float64
	facts        []jobFacts // from traced ops
}

// serviceBlock builds one round's job list: 70 % verify (every protocol
// in both modes, equally often), 20 % lint (every protocol equally
// often), 10 % litmus.
func serviceBlock(sz sizes) ([]jobSpec, error) {
	names := make([]string, 0, sz.serviceProtocols)
	for _, p := range protocols.All[:sz.serviceProtocols] {
		names = append(names, p.Name)
	}
	nVerify, nLint, nLitmus := sz.serviceBlock*7/10, sz.serviceBlock*2/10, sz.serviceBlock/10
	combos := len(names) * len(serviceModes)
	if nVerify%combos != 0 || nLint%len(names) != 0 || nVerify+nLint+nLitmus != sz.serviceBlock {
		return nil, fmt.Errorf("a block of %d jobs cannot hold %d protocols equally often", sz.serviceBlock, len(names))
	}
	var reqs []service.Request
	for _, name := range names {
		for _, mode := range serviceModes {
			for i := 0; i < nVerify/combos; i++ {
				reqs = append(reqs, service.Request{Kind: "verify", Protocol: name, Mode: mode, Caches: 2})
			}
		}
		for i := 0; i < nLint/len(names); i++ {
			reqs = append(reqs, service.Request{Kind: "lint", Protocol: name})
		}
	}
	for i := 0; i < nLitmus; i++ {
		reqs = append(reqs, service.Request{Kind: "litmus", Protocol: "TSO_CC", Tests: litmusTests})
	}
	block := make([]jobSpec, len(reqs))
	for i, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		block[i] = jobSpec{req: r, body: body}
	}
	return block, nil
}

func startService(storeDir, cacheDir string) (*service.Server, error) {
	return service.New(service.Config{
		Workers:  serviceWorkers,
		StoreDir: storeDir,
		CacheDir: cacheDir,
		// Fleet diagnostics are retries and lease expiries; none is
		// expected, and the retries metric would show one.
		Warn: func(string, ...any) {},
	})
}

func setupService(e *env, rec *recorder) (instance, error) {
	block, err := serviceBlock(e.sz)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.dir, "service-")
	if err != nil {
		return nil, err
	}
	srv, err := startService(filepath.Join(dir, "store"), filepath.Join(dir, "cache"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &svc{e: e, dir: dir, srv: srv, block: block}

	// Warm-up: every distinct job once, which fills the result cache,
	// then a burst of the mix.
	distinct := map[string]bool{}
	for _, j := range block {
		if !distinct[string(j.body)] {
			distinct[string(j.body)] = true
			rec.check(s.job(srv, j, false, nil, -1, nil))
		}
	}
	warm := &recorder{}
	s.burst(srv, s.shuffled(-1)[:e.sz.serviceWarmJobs], warm)
	rec.absorbUntimed(warm)
	return s, nil
}

func (s *svc) shuffled(round int) []jobSpec {
	jobs := append([]jobSpec(nil), s.block...)
	rng := rand.New(rand.NewSource(s.e.seed*1_000_003 + int64(round)))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// burst has the closed-loop clients work through jobs, each taking the
// next one as soon as its previous one is checked.
func (s *svc) burst(srv *service.Server, jobs []jobSpec, rec *recorder) {
	var next atomic.Int64
	var wg sync.WaitGroup
	clients := make([]*recorder, serviceClients)
	facts := make([][]jobFacts, serviceClients)
	for c := range clients {
		clients[c] = &recorder{}
		if rec.tr != nil {
			clients[c].tr = newTracer(rec.tr.epoch)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := clients[c]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				r.op(func(op int) error { return s.job(srv, jobs[i], true, r.tr, op, &facts[c]) })
			}
		}()
	}
	wg.Wait()
	for c, r := range clients {
		rec.absorb(r)
		s.facts = append(s.facts, facts[c]...)
	}
}

func (s *svc) round(i int, rec *recorder) {
	jobs := s.shuffled(i)
	t0 := time.Now()
	s.burst(s.srv, jobs, rec)
	s.roundOpsPerS = append(s.roundOpsPerS, float64(len(jobs))/time.Since(t0).Seconds())
}

func call(srv *service.Server, method, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// job submits one request, polls it to a terminal state, fetches the
// result and checks all three against the answers.
func (s *svc) job(srv *service.Server, j jobSpec, wantCached bool, tr *tracer, op int, facts *[]jobFacts) error {
	t0 := time.Now()
	sp := tr.begin("service.submit", op)
	code, body := call(srv, http.MethodPost, "/jobs", j.body)
	tr.end(sp)
	var v service.JobView
	if code != http.StatusAccepted {
		return fmt.Errorf("submit %s: status %d: %s", j.body, code, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("submit %s: %w", j.body, err)
	}
	path := "/jobs/" + v.ID

	polls := 0
	sp = tr.begin("service.poll", op)
	for {
		code, body = call(srv, http.MethodGet, path, nil)
		polls++
		if code != http.StatusOK {
			tr.end(sp)
			return fmt.Errorf("%s: status %d: %s", path, code, body)
		}
		v = service.JobView{}
		if err := json.Unmarshal(body, &v); err != nil {
			tr.end(sp)
			return fmt.Errorf("%s: %w", path, err)
		}
		if v.Status != service.StatusQueued && v.Status != service.StatusRunning {
			break
		}
		if time.Since(t0) > jobTimeLimit {
			tr.end(sp)
			return fmt.Errorf("%s: still %s after %s", path, v.Status, jobTimeLimit)
		}
		time.Sleep(pollEvery)
	}
	seen := time.Now()
	tr.end(sp)

	sp = tr.begin("service.result_get", op)
	code, body = call(srv, http.MethodGet, path+"/result", nil)
	tr.end(sp)

	sp = tr.begin("bench.check", op)
	defer tr.end(sp)
	if v.Status != service.StatusDone || v.OK == nil || v.Started == nil || v.Finished == nil {
		return fmt.Errorf("%s %s: finished %s: %s", path, j.body, v.Status, v.Error)
	}
	if err := s.e.book.verdict("registry", j.req.Protocol, *v.OK); err != nil {
		return fmt.Errorf("%s: %w", j.body, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s/result: status %d: %s", path, code, body)
	}
	var res struct {
		States  int               // verify
		Errors  *int              `json:"errors"`  // lint
		Results []json.RawMessage `json:"results"` // litmus
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("%s/result: %w", path, err)
	}
	switch j.req.Kind {
	case "verify":
		if wantCached && !v.Cached {
			return fmt.Errorf("%s %s: not served from the result cache", path, j.body)
		}
		if err := s.e.book.pin("service."+j.req.Protocol+"."+j.req.Mode+".states", res.States); err != nil {
			return err
		}
	case "lint":
		if res.Errors == nil || *res.Errors != 0 {
			return fmt.Errorf("%s/result: lint errors on %s", path, j.req.Protocol)
		}
	case "litmus":
		if len(res.Results) != len(j.req.Tests) {
			return fmt.Errorf("%s/result: %d litmus results, want %d", path, len(res.Results), len(j.req.Tests))
		}
	}
	if tr != nil {
		*facts = append(*facts, jobFacts{
			queueWait: v.Started.Sub(v.Submitted).Seconds(),
			exec:      v.Finished.Sub(*v.Started).Seconds(),
			reportLag: seen.Sub(*v.Finished).Seconds(),
			polls:     polls,
			retries:   max(v.Attempt-1, 0),
			cached:    v.Cached,
		})
	}
	return nil
}

// direct answers the same request by calling the engine the service
// wraps, as internal/service/executor.go does.
func direct(ctx context.Context, eng *protogen.Engine, r service.Request) error {
	spec, err := protogen.LoadSpec(r.Protocol, "")
	if err != nil {
		return err
	}
	switch r.Kind {
	case "verify":
		cfg := protogen.DefaultVerifyConfig()
		cfg.Caches = r.Caches
		res, err := eng.Verify(ctx, protogen.VerifyJob{Spec: spec, Mode: r.Mode, Config: &cfg})
		if err == nil && !(res.OK() && res.Cached) {
			err = fmt.Errorf("direct verify %s %s: ok=%t cached=%t", r.Protocol, r.Mode, res.OK(), res.Cached)
		}
		return err
	case "lint":
		_, err := eng.Lint(ctx, protogen.LintJob{Spec: spec})
		return err
	default:
		_, err := eng.Litmus(ctx, protogen.LitmusJob{Spec: spec, Tests: r.Tests})
		return err
	}
}

func (s *svc) layers(rec *recorder, tr *tracer) (map[string]float64, error) {
	var queueWait, exec, lag []float64
	polls, retries, cached := 0, 0, 0
	for _, f := range s.facts {
		queueWait = append(queueWait, f.queueWait)
		exec = append(exec, f.exec)
		lag = append(lag, f.reportLag)
		polls += f.polls
		retries += f.retries
		if f.cached {
			cached++
		}
	}
	n := float64(len(s.facts))
	jobS := median(durations(tr.spans, "op"))
	m := map[string]float64{
		"service.submit_s":      median(durations(tr.spans, "service.submit")),
		"service.result_get_s":  median(durations(tr.spans, "service.result_get")),
		"service.queue_wait_s":  median(queueWait),
		"service.exec_s":        median(exec),
		"service.report_lag_s":  median(lag),
		"service.polls_per_job": float64(polls) / n,
		"service.cached_share":  float64(cached) / n,
		"service.retries":       float64(retries),
	}

	// The same burst with job records kept in memory only: what the WAL
	// and its fsyncs cost.
	cacheDir := filepath.Join(s.dir, "cache")
	mem, err := startService("", cacheDir)
	if err != nil {
		return nil, err
	}
	jobs := s.shuffled(-2)
	memRec := &recorder{}
	t0 := time.Now()
	s.burst(mem, jobs, memRec)
	memOps := float64(len(jobs)) / time.Since(t0).Seconds()
	rec.absorbUntimed(memRec)
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeLimit)
	err = mem.Shutdown(ctx)
	cancel()
	if err != nil {
		return nil, err
	}
	m["service.mem_over_wal_ops"] = memOps / median(s.roundOpsPerS)

	// The same requests straight through the engine: what the fleet adds.
	eng := protogen.NewEngine(protogen.WithCacheDir(cacheDir))
	var directS []float64
	for _, j := range jobs {
		t0 := time.Now()
		err := direct(context.Background(), eng, j.req)
		directS = append(directS, time.Since(t0).Seconds())
		rec.check(err)
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	m["service.overhead_s"] = jobS - median(directS)

	for _, probe := range []func(*env, string) (map[string]float64, error){cacheProbe, jobstoreProbe, busProbe} {
		pm, err := probe(s.e, s.dir)
		if err != nil {
			return nil, err
		}
		for k, x := range pm {
			m[k] = x
		}
	}
	return m, nil
}

func (s *svc) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeLimit)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	return os.RemoveAll(s.dir)
}
