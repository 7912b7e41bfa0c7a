// Package service is the long-running verification service the ROADMAP
// names as the production-scale path. Clients submit verify / fuzz /
// simulate / lint / litmus jobs over HTTP/JSON; the coordinator
// persists every submission to a durable job store before
// acknowledging it and queues it for a fixed pool of runner goroutines,
// each of which calls the Executor directly and records the outcome
// when the call returns. A job's cancel is its context; a panicking
// executor fails its job with the panic's value and stack. The one
// retry is a restart's: a restarted server replays the store, queues
// the queued jobs again and reruns, as their next attempt, the jobs the
// log says were running when the process died, dead-lettering a job
// once MaxAttempts attempts have been interrupted. All jobs resolve
// through one shared Engine, so a structurally identical verify
// resubmit is answered from the verify result cache — at submit,
// recorded done in one store write, never queued — and failing fuzz
// campaigns sink minimized reproducers into a corpus directory.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"protogen"
	"protogen/internal/jobstore"
)

// Config tunes a Server.
type Config struct {
	// Workers is how many jobs run at once (default 2); a job's own
	// model-checker parallelism is set by Parallelism.
	Workers int
	// QueueDepth bounds the submitted-but-unstarted queue (default 64);
	// submits beyond it are rejected with 503 rather than buffered
	// without bound.
	QueueDepth int
	// MaxJobs bounds the retained job records (default 1024). When a
	// submit would exceed it, the oldest *finished* jobs — and the
	// results they hold — are evicted; queued and running jobs are
	// never evicted. Clients can also free a finished job explicitly
	// with DELETE.
	MaxJobs int
	// Parallelism is the per-job exploration worker default passed to
	// the Engine (0 = all cores).
	Parallelism int
	// CacheDir persists the shared verify result cache; "" disables
	// caching.
	CacheDir string
	// CorpusDir is the corpus sink: minimized reproducers from failing
	// fuzz jobs are written here. "" disables the sink.
	CorpusDir string
	// Engine overrides the engine built from the fields above (tests,
	// embedding). The caller keeps ownership.
	Engine *protogen.Engine

	// StoreDir persists the job store as an append-only WAL in this
	// directory: a submit is on disk before its 202, and a restarted
	// server replays the log to recover queued and interrupted jobs. ""
	// keeps job state in memory only.
	StoreDir string
	// Store overrides the job store built from StoreDir (tests,
	// embedding). The caller keeps ownership.
	Store jobstore.Store
	// Executor overrides the engine-backed job executor (tests inject
	// fast or faulty executors).
	Executor Executor

	// MaxAttempts dead-letters a job once this many of its attempts
	// have been interrupted by a restart (default 4).
	MaxAttempts int
	// Warn receives service diagnostics (default log.Printf).
	Warn func(format string, args ...any)
}

// withDefaults resolves the zero values.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.Warn == nil {
		cfg.Warn = log.Printf
	}
	return cfg
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states. StatusDead is the dead-letter state: restarts
// interrupted the job MaxAttempts times and it is parked with its
// failure chain.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
	StatusDead     Status = "dead"
)

// Request is the submit body. Kind selects the job; the subject is a
// registry protocol name or inline DSL source (verify/simulate/lint/
// litmus), or a seed range (fuzz). Zero-valued tuning fields inherit the
// library defaults.
type Request struct {
	Kind string `json:"kind"` // verify | fuzz | simulate | lint | litmus

	// Subject (verify, simulate, lint, litmus).
	Protocol string `json:"protocol,omitempty"` // registry name
	Source   string `json:"source,omitempty"`   // inline SSP DSL
	Mode     string `json:"mode,omitempty"`     // nonstalling (default), stalling, deferred
	Limit    int    `json:"limit,omitempty"`    // pending-transaction limit L

	// Lint tuning. Codes restricts the report to the listed diagnostic
	// codes (e.g. "PG104"); SpecOnly skips the generated protocol
	// layers. A lint job with Mode set analyzes just that mode;
	// otherwise all generation modes are analyzed.
	Codes    []string `json:"codes,omitempty"`
	SpecOnly bool     `json:"spec_only,omitempty"`

	// Checker tuning (verify; Caches and MaxStates also scale fuzz,
	// simulate and litmus). Caches above protogen.CheckCaches' bound (8)
	// is refused at submit with a 400: one such job would pin a runner
	// for hours.
	Caches      int  `json:"caches,omitempty"`
	MaxStates   int  `json:"max_states,omitempty"`
	Fingerprint bool `json:"fingerprint,omitempty"`
	// Reduce enables partial-order reduction: same verdicts, fewer
	// states. Result.ReduceUnsafe reports a silent fallback to full
	// exploration when the protocol's dependence analysis refuses.
	Reduce  bool `json:"reduce,omitempty"`
	NoCache bool `json:"no_cache,omitempty"`

	// Campaign range and tuning (fuzz).
	First    uint64   `json:"first,omitempty"`
	Last     uint64   `json:"last,omitempty"`
	Families []string `json:"families,omitempty"`
	SimSteps *int     `json:"sim_steps,omitempty"`
	Shrink   *bool    `json:"shrink,omitempty"`

	// Run tuning (simulate; Seed also seeds litmus sampling).
	Workload string `json:"workload,omitempty"`
	Steps    int    `json:"steps,omitempty"`
	Seed     int64  `json:"seed,omitempty"`

	// Litmus oracle tuning. Tests restricts the catalog ([] = all);
	// Axiom overrides the protocol's default consistency axiom; Runs
	// adds a randomized sample next to the (default) exhaustive
	// exploration; Exhaustive forces exhaustive mode on even when Runs
	// is set without it. Caches and MaxStates above scale the composed
	// system and the per-test state budget.
	Tests      []string `json:"tests,omitempty"`
	Axiom      string   `json:"axiom,omitempty"`
	Exhaustive bool     `json:"exhaustive,omitempty"`
	Runs       int      `json:"runs,omitempty"`
}

// validate rejects malformed submissions before they enter the queue.
func (r *Request) validate() error {
	switch r.Kind {
	case "verify":
		if r.Protocol == "" && r.Source == "" {
			return fmt.Errorf("verify job needs protocol or source")
		}
	case "fuzz":
		if r.Last <= r.First {
			return fmt.Errorf("fuzz job needs a non-empty seed range first < last")
		}
	case "simulate":
		if r.Protocol == "" && r.Source == "" {
			return fmt.Errorf("simulate job needs protocol or source")
		}
		if r.Workload == "" {
			return fmt.Errorf("simulate job needs a workload")
		}
	case "lint":
		if r.Protocol == "" && r.Source == "" {
			return fmt.Errorf("lint job needs protocol or source")
		}
	case "litmus":
		if r.Protocol == "" && r.Source == "" {
			return fmt.Errorf("litmus job needs protocol or source")
		}
	default:
		return fmt.Errorf("unknown job kind %q (want verify, fuzz, simulate, lint or litmus)", r.Kind)
	}
	if r.Protocol != "" && r.Source != "" {
		return fmt.Errorf("protocol and source are mutually exclusive")
	}
	return protogen.CheckCaches(r.Caches)
}

// ProgressView is the wire form of the latest typed progress event,
// flattened so pollers need no type switch: Kind says which fields are
// live.
type ProgressView struct {
	Kind    string    `json:"kind"`
	Detail  string    `json:"detail"`
	Updated time.Time `json:"updated"`

	// verify
	States   int `json:"states,omitempty"`
	Edges    int `json:"edges,omitempty"`
	Depth    int `json:"depth,omitempty"`
	Frontier int `json:"frontier,omitempty"`
	// fuzz
	SeedsDone  int `json:"seeds_done,omitempty"`
	SeedsTotal int `json:"seeds_total,omitempty"`
	Fail       int `json:"fail,omitempty"`
	RanChecks  int `json:"ran_checks,omitempty"`
	CacheHits  int `json:"cache_hits,omitempty"`
	// simulate
	Steps        int `json:"steps,omitempty"`
	TotalSteps   int `json:"total_steps,omitempty"`
	Transactions int `json:"transactions,omitempty"`
	// litmus
	TestsDone  int `json:"tests_done,omitempty"`
	TestsTotal int `json:"tests_total,omitempty"`
	Forbidden  int `json:"forbidden,omitempty"`
}

// viewOf flattens a typed event into the wire form.
func viewOf(ev protogen.ProgressEvent, now time.Time) *ProgressView {
	v := &ProgressView{Kind: ev.Kind(), Detail: ev.String(), Updated: now}
	switch p := ev.(type) {
	case protogen.VerifyProgress:
		v.States, v.Edges, v.Depth, v.Frontier = p.States, p.Edges, p.Depth, p.Frontier
	case protogen.FuzzProgress:
		v.SeedsDone, v.SeedsTotal, v.Fail = p.SeedsDone, p.SeedsTotal, p.Fail
		v.RanChecks, v.CacheHits = p.RanChecks, p.CacheHits
	case protogen.SimProgress:
		v.Steps, v.TotalSteps, v.Transactions = p.Steps, p.TotalSteps, p.Transactions
	case protogen.LitmusProgress:
		v.TestsDone, v.TestsTotal, v.Forbidden = p.Done, p.Total, p.Forbidden
		v.States = p.States
	}
	return v
}

// JobView is the wire form of a job's status.
type JobView struct {
	ID        string        `json:"id"`
	Kind      string        `json:"kind"`
	Status    Status        `json:"status"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Progress  *ProgressView `json:"progress,omitempty"`
	// Attempt counts execution attempts started (restart reruns visible).
	Attempt int `json:"attempt,omitempty"`
	// Failures is the failure chain: one entry per failed, interrupted
	// or released attempt, oldest first.
	Failures []string `json:"failures,omitempty"`
	// Summary is the result's one-line rendering once the job finished.
	Summary string `json:"summary,omitempty"`
	// Cached marks a verify result served from the shared result cache.
	Cached bool `json:"cached,omitempty"`
	// Canceled marks a partial result (job canceled mid-run).
	Canceled bool `json:"canceled,omitempty"`
	// OK reports the verdict once done: verification PASS (complete, no
	// violation; a capped run is INCOMPLETE and not ok) / campaign
	// all-pass / simulation SC-clean.
	OK *bool `json:"ok,omitempty"`
	// Error carries the failure message of a failed or dead job.
	Error string `json:"error,omitempty"`
	// CorpusFiles lists reproducers this job sank into the corpus dir.
	CorpusFiles []string `json:"corpus_files,omitempty"`
}

// Server is the HTTP face of the service. Create with New, wire into an
// http.Server via ServeHTTP (it is an http.Handler), stop with
// Shutdown.
type Server struct {
	cfg      Config
	eng      *protogen.Engine
	ownEng   bool
	store    jobstore.Store
	ownStore bool
	co       *coordinator
	mux      *http.ServeMux
}

// New builds and starts a Server: store replayed, runners live on
// return.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg}

	s.eng = cfg.Engine
	if s.eng == nil {
		opts := []protogen.EngineOption{
			protogen.WithParallelism(cfg.Parallelism),
			protogen.WithWarnings(func(msg string) { cfg.Warn("protoserve: %s", msg) }),
		}
		if cfg.CacheDir != "" {
			opts = append(opts, protogen.WithCacheDir(cfg.CacheDir))
		}
		s.eng = protogen.NewEngine(opts...)
		s.ownEng = true
		// Open the cache eagerly so a bad directory fails the boot, not
		// the first job.
		if _, err := s.eng.Cache(); err != nil {
			s.eng.Close()
			return nil, err
		}
	}

	s.store = cfg.Store
	if s.store == nil {
		if cfg.StoreDir != "" {
			w, err := jobstore.OpenWAL(cfg.StoreDir, jobstore.WALOptions{})
			if err != nil {
				s.closeOwned()
				return nil, err
			}
			if n, off := w.Damage(); n > 0 {
				cfg.Warn("protoserve: job log %s: %d unreadable line(s) skipped, the first at byte %d: the record versions they held are lost",
					cfg.StoreDir, n, off)
			}
			s.store = w
		} else {
			s.store = jobstore.NewMem()
		}
		s.ownStore = true
	}

	exec := cfg.Executor
	if exec == nil {
		exec = engineExecutor(s.eng, cfg.CorpusDir)
	}
	co, err := newCoordinator(cfg, s.store, exec)
	if err != nil {
		s.closeOwned()
		return nil, err
	}
	s.co = co
	s.routes()
	return s, nil
}

// closeOwned releases the resources New built.
func (s *Server) closeOwned() {
	if s.ownStore && s.store != nil {
		s.store.Close()
	}
	if s.ownEng && s.eng != nil {
		s.eng.Close()
	}
}

// Shutdown stops the service: no new submits, running jobs are
// canceled and record canceled results, and Shutdown waits for them
// within ctx's deadline. On the deadline every job still running is
// released back to queued without charging an attempt — so a restarted
// server reruns it instead of losing it — and any outcome it reports
// later is dropped. Returns ctx.Err() when the deadline forced the
// release.
func (s *Server) Shutdown(ctx context.Context) error {
	graceful := s.co.shutdown(ctx)
	s.closeOwned()
	if !graceful {
		return ctx.Err()
	}
	return nil
}

// ServeHTTP makes Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /corpus", s.handleCorpus)
}

// writeJSON is the single response serializer.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	view, err := s.co.submit(req, s.answer(req))
	if err != nil {
		// Every submit refusal is a 503: drain, full queue, or a store
		// that cannot make the 202's durability promise.
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

// answer looks a verify request up in the engine's result cache and, on
// a hit, returns the outcome a runner serving that hit would record. Nil
// queues the job: a miss, another kind, an error or a panic here, each
// of which the runner meets again and handles as it always has. A
// panic is also warned about here, since it is a bug.
func (s *Server) answer(req Request) (m *Outcome) {
	if req.Kind != "verify" {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			s.cfg.Warn("protoserve: result-cache lookup at submit panicked (the job is queued): %v", r)
			m = nil
		}
	}()
	job, err := verifyJob(req)
	if err != nil {
		return nil
	}
	res, ok, err := s.eng.Cached(job)
	if err != nil || !ok {
		return nil
	}
	out := verifyOutcome(res)
	return &out
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.co.list()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.co.view(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	payload, code, ok := s.co.result(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, code, payload)
}

// handleCancel is DELETE /jobs/{id}: a queued job is marked canceled, a
// running job's cancel intent is recorded durably and its context
// canceled (it stops at its next cancellation boundary), and a finished
// job is removed — freeing its retained result — so long-lived clients
// can bound the server's memory themselves.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, deleted, ok := s.co.cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if deleted {
		writeJSON(w, http.StatusOK, map[string]any{"deleted": true, "job": view})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleHealth is honest readiness: it reports job counts, queue depth
// and runners, and degrades to 503 when the job store cannot persist
// submissions — a load balancer must stop sending work to a server
// that would lose it.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	counts, queued := s.co.health()
	health := map[string]any{
		"status":  "ok",
		"jobs":    counts,
		"workers": map[string]any{"configured": s.cfg.Workers},
		"queue": map[string]any{
			"depth":    queued,
			"capacity": s.cfg.QueueDepth,
		},
	}
	if cache, err := s.eng.Cache(); err == nil && cache != nil {
		hits, misses := cache.Stats()
		health["cache"] = map[string]any{"entries": cache.Len(), "hits": hits, "misses": misses}
	}
	code := http.StatusOK
	if err := s.store.Err(); err != nil {
		health["status"] = "degraded"
		health["store_error"] = err.Error()
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, health)
}

// handleCorpus lists the reproducers in the corpus sink directory.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	if s.cfg.CorpusDir == "" {
		writeJSON(w, http.StatusOK, map[string]any{"corpus_dir": "", "entries": []string{}})
		return
	}
	entries := []string{}
	dirents, err := os.ReadDir(s.cfg.CorpusDir)
	if err != nil && !os.IsNotExist(err) {
		writeError(w, http.StatusInternalServerError, "corpus dir: %v", err)
		return
	}
	for _, d := range dirents {
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".ssp") {
			entries = append(entries, d.Name())
		}
	}
	sort.Strings(entries)
	writeJSON(w, http.StatusOK, map[string]any{"corpus_dir": s.cfg.CorpusDir, "entries": entries})
}
