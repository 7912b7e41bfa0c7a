package protogen

// This file is the job-oriented root API: a configurable Engine that
// runs VerifyJob / SimulateJob / FuzzJob values under a context.Context,
// emitting typed progress events and sharing one verify result cache.
// The command-line tool, every example and the service layer
// (internal/service, protogen serve) run on it. See docs/API.md for
// the design and migration notes.

import (
	"context"
	"fmt"
	"os"
	"sync"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/fuzz"
	"protogen/internal/litmus"
	"protogen/internal/protocols"
	"protogen/internal/sim"
	"protogen/internal/verify"
)

// ProgressEvent is one typed progress snapshot from a running job.
// The concrete types are VerifyProgress (states/edges/depth/frontier,
// one per BFS level), FuzzProgress (seeds completed/failed, checks run,
// cache hits, one per seed), SimProgress (steps/transactions, one per
// stride) and LitmusProgress (tests done, states, forbidden outcomes so
// far, one per test); Kind returns "verify", "fuzz", "simulate" or
// "litmus" accordingly.
type ProgressEvent interface {
	Kind() string
	String() string
}

// Progress event payloads, one per job type.
type (
	// VerifyProgress is a level-boundary snapshot of an exploration.
	VerifyProgress = verify.Progress
	// FuzzProgress is a cumulative snapshot of a campaign.
	FuzzProgress = fuzz.Progress
	// SimProgress is a stride snapshot of a simulation run.
	SimProgress = sim.Progress
	// LitmusProgress is a per-test snapshot of a litmus oracle run.
	LitmusProgress = litmus.Progress
)

// ProgressFunc receives progress events. Implementations must return
// promptly: events are delivered synchronously from the job's own
// goroutines (serialized per job, never concurrently with itself).
type ProgressFunc func(ProgressEvent)

// ChannelProgress adapts a channel into a ProgressFunc. Sends never
// block the running job: when ch is full the event is dropped (each
// event is a cumulative snapshot, so a newer one supersedes it).
func ChannelProgress(ch chan<- ProgressEvent) ProgressFunc {
	return func(ev ProgressEvent) {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Engine runs verification, simulation and fuzzing jobs under a shared
// configuration: worker parallelism, one verify result cache and a
// warnings sink. Options layer defaults over what a job leaves unset;
// the zero-option engine adds none. An Engine is safe for
// concurrent use — the service's worker pool runs many jobs on one
// Engine to share its cache.
type Engine struct {
	parallelism int
	cacheDir    string
	warn        func(string)

	mu    sync.Mutex
	cache *VerifyResultCache //protogen:guardedby mu
	// keys is the raw-text index: the cache key of a Source job's
	// unparsed text → the key of its canonical text (see cacheKey). It
	// only maps to keys the cache holds, and never has more entries than
	// the cache.
	keys map[string]string //protogen:guardedby mu
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithParallelism sets the default worker count jobs run with when
// their own config leaves Parallelism at 0 (which otherwise means all
// cores).
func WithParallelism(n int) EngineOption {
	return func(e *Engine) { e.parallelism = n }
}

// WithCacheDir gives the engine a verify result cache persisted under
// dir, opened lazily on first use and closed by Close. Verify jobs
// resolve through it (unless VerifyJob.NoCache) and fuzz jobs inherit
// it when their config carries no cache of its own.
func WithCacheDir(dir string) EngineOption {
	return func(e *Engine) { e.cacheDir = dir }
}

// WithWarnings sets a sink for non-fatal operational problems and
// advisory findings: result-cache write failures (a full disk or
// read-only cache dir loses memoization but never a verdict), cache
// lines that could not be read back when the cache was opened, and the
// static analyzer's generation-time lint warnings (prefixed "lint:",
// emitted whenever a Verify/Simulate job generates from a spec). Unset,
// such problems are silent.
func WithWarnings(fn func(msg string)) EngineOption {
	return func(e *Engine) { e.warn = fn }
}

// warnf reports a non-fatal problem to the warnings sink, if any.
func (e *Engine) warnf(format string, args ...any) {
	if e.warn != nil {
		e.warn(fmt.Sprintf(format, args...))
	}
}

// NewEngine builds an Engine.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Cache returns the engine's result cache, opening the WithCacheDir
// directory on first call (and warning, once, about lines of it that
// could not be read). It returns (nil, nil) when the engine has no
// cache configured.
func (e *Engine) Cache() (*VerifyResultCache, error) {
	e.mu.Lock()
	if e.cache != nil || e.cacheDir == "" {
		defer e.mu.Unlock()
		return e.cache, nil
	}
	c, err := verify.OpenResultCache(e.cacheDir)
	if err == nil {
		e.cache = c
	}
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if n, off := c.Damage(); n > 0 { // outside e.mu: the sink is the caller's code
		e.warnf("result cache %s: %d unreadable line(s) skipped, the first at byte %d: those verifications will be rerun",
			e.cacheDir, n, off)
	}
	return c, nil
}

// Close releases what the engine owns: the result cache, if a job or
// Cache opened it. Later jobs still run and still hit what is cached;
// each result they would have stored is a write-failure warning.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache == nil {
		return nil
	}
	return e.cache.Close()
}

// VerifyJob model-checks one protocol. Exactly one of Protocol, Spec or
// Source selects the subject; Spec/Source jobs are generated under Mode
// or Options and are eligible for the engine's result cache (Protocol
// jobs are not: the cache key needs the canonical spec text).
type VerifyJob struct {
	// Protocol is an already-generated protocol (bypasses generation
	// and the result cache).
	Protocol *Protocol
	// Spec is a parsed SSP to generate and check.
	Spec *Spec
	// Source is SSP DSL text to parse, generate and check. A cache hit
	// on text this engine has seen before skips the parse too.
	Source string

	// Mode names the generation mode (nonstalling, stalling, deferred);
	// "" means nonstalling. Ignored when Options or Protocol is set.
	Mode string
	// Options are explicit generation options, overriding Mode.
	Options *Options
	// PendingLimit overrides the options' absorption limit L when > 0.
	PendingLimit int

	// Config tunes the checker; nil uses DefaultVerifyConfig. The
	// engine's parallelism fills in whenever Config.Parallelism is 0,
	// and DefaultVerifyConfig's value for each of Caches, Capacity,
	// Values and MaxStates that is zero or negative, so a partly filled
	// Config is a complete one.
	Config *VerifyConfig

	// NoCache skips the engine's result cache for this job.
	NoCache bool
	// OnProgress receives the job's progress events; nil drops them.
	OnProgress ProgressFunc
}

// SimulateJob runs one protocol under randomized scheduling. Subject
// selection follows VerifyJob; Config.Workload is required, and a zero
// Config.Caches / Config.Steps means 3 caches / 50 000 steps.
type SimulateJob struct {
	Protocol *Protocol
	Spec     *Spec
	Source   string

	Mode         string
	Options      *Options
	PendingLimit int

	// Config tunes the run (Workload required).
	Config SimConfig
	// OnProgress receives the job's progress events; nil drops them.
	OnProgress ProgressFunc
}

// FuzzJob runs a differential campaign over the half-open seed range
// [First, Last).
type FuzzJob struct {
	First, Last uint64
	// Config tunes the campaign; nil uses DefaultFuzzConfig. The
	// engine's parallelism fills in when Config.Parallelism is 0, the
	// engine's result cache when Config.Cache is nil, and
	// DefaultFuzzConfig's value for each of Caches and MaxStates that is
	// zero or negative.
	Config *FuzzConfig
	// OnProgress receives the job's progress events; nil drops them.
	OnProgress ProgressFunc
}

// LitmusJob runs the weak-memory litmus oracle over one protocol:
// catalog tests explored exhaustively and/or sampled, with every
// outcome classified under a consistency axiom. Subject selection
// follows VerifyJob.
type LitmusJob struct {
	Protocol *Protocol
	Spec     *Spec
	Source   string

	Mode         string
	Options      *Options
	PendingLimit int

	// Tests names catalog tests to run; nil/empty runs the full catalog.
	Tests []string
	// Axiom is the consistency axiom to classify under ("sc", "tso" or
	// "weak"); "" uses the protocol's default (weak for protocols that
	// implement acquire fences, SC otherwise).
	Axiom string
	// Exhaustive enables the exhaustive explorer. When both Exhaustive
	// is false and Runs is 0, the job defaults to exhaustive — the
	// oracle's reason to exist is exact outcome sets.
	Exhaustive bool
	// Runs adds a randomized sample of that many schedules per test;
	// combined with Exhaustive the job also checks sampled ⊆ exhaustive.
	Runs int
	// Seed seeds the randomized sample.
	Seed int64
	// Caches sizes the composed per-address systems (minimum: the
	// test's thread count; 0 = 3; at most 8, as for every job kind).
	Caches int
	// MaxStates bounds each exhaustive exploration (0 = the litmus
	// package default).
	MaxStates int

	// OnProgress receives the job's progress events; nil drops them.
	OnProgress ProgressFunc
}

// resolveSubject turns a job's subject fields into a parsed spec and/or
// generated protocol plus the generation options used.
func resolveSubject(proto *Protocol, spec *Spec, source, mode string, explicit *Options, limit int) (*Spec, *Protocol, Options, error) {
	opts, err := subjectOptions(proto, spec, source, mode, explicit, limit)
	if err != nil || proto != nil {
		return nil, proto, opts, err
	}
	if source != "" {
		if spec, err = dsl.Parse(source); err != nil {
			return nil, nil, opts, err
		}
	}
	return spec, nil, opts, nil
}

// subjectOptions checks that a job names exactly one subject and
// resolves the generation options a Spec or Source subject is generated
// under (none for a Protocol), without parsing anything.
func subjectOptions(proto *Protocol, spec *Spec, source, mode string, explicit *Options, limit int) (Options, error) {
	var opts Options
	set := 0
	for _, ok := range []bool{proto != nil, spec != nil, source != ""} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return opts, fmt.Errorf("job needs exactly one of Protocol, Spec or Source (got %d)", set)
	}
	if proto != nil {
		return opts, nil
	}
	if explicit != nil {
		opts = *explicit
	} else {
		var err error
		if opts, err = core.OptionsForMode(mode); err != nil {
			return opts, err
		}
	}
	if limit > 0 {
		opts.PendingLimit = limit
	}
	return opts, nil
}

// resolveCaches applies the one cache-count rule every job kind shares:
// zero or negative means the job's default, and a count above
// verify.MaxCaches is refused before any System is built.
func resolveCaches(n, def int) (int, error) {
	return orDefault(n, def), verify.CheckCaches(n)
}

// orDefault is the rule for a job config's sizes: zero or negative means
// the default. A checker handed a zero divides by it (Values), reports
// every send as a channel overflow (Capacity) or stops after two states
// (MaxStates).
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// verifyConfig layers engine defaults over a job's checker config.
func (e *Engine) verifyConfig(c *VerifyConfig) (VerifyConfig, error) {
	def := verify.DefaultConfig()
	cfg := def
	if c != nil {
		cfg = *c
	}
	if cfg.Parallelism == 0 && e.parallelism > 0 {
		cfg.Parallelism = e.parallelism
	}
	cfg.Capacity = orDefault(cfg.Capacity, def.Capacity)
	cfg.Values = orDefault(cfg.Values, def.Values)
	cfg.MaxStates = orDefault(cfg.MaxStates, def.MaxStates)
	var err error
	cfg.Caches, err = resolveCaches(cfg.Caches, def.Caches)
	return cfg, err
}

// Verify runs a verification job under ctx. Cancellation is observed at
// BFS level boundaries; the partial result comes back with
// Result.Canceled set and a nil error (cancellation is an outcome, not
// a failure — errors are reserved for bad jobs and generation
// failures). Cache-served results carry Result.Cached.
func (e *Engine) Verify(ctx context.Context, job VerifyJob) (*VerifyResult, error) {
	r, err := e.resolveVerify(job)
	if err != nil {
		return nil, err
	}
	cfg := r.cfg
	if fn := job.OnProgress; fn != nil {
		cfg.Progress = func(p verify.Progress) { fn(p) }
	}
	res, writeErr, err := r.cache.CheckCtx(ctx, r.key, cfg, func() (*Protocol, error) {
		if job.Protocol != nil {
			return job.Protocol, nil
		}
		spec := r.spec
		if spec == nil { // the raw-text index had the key, or the job uses no cache
			var err error
			if spec, err = dsl.Parse(job.Source); err != nil {
				return nil, err
			}
		}
		return core.GenerateWithWarnings(spec, r.opts, e.warn)
	})
	if err != nil {
		return nil, err
	}
	switch {
	case writeErr != nil:
		// A write failure only loses memoization; the verdict stands.
		e.warnf("result cache write failed (rerun will re-verify): %v", writeErr)
	case !res.Canceled: // served from the cache, or Put there
		e.remember(r)
	}
	return res, nil
}

// Cached answers a verify job from the result cache alone: on a hit it
// returns the Result Verify would serve (Result.Cached set) without
// generating or checking anything. It reports no hit, and no error, for
// a job the cache may not answer: NoCache, a Protocol subject, a
// commutation audit, or an engine with no cache. The error is the job's
// own (a bad mode, a cache count over the bound, a Source that does not
// parse). A hit counts in the cache's Stats and a miss does not: the
// job's Verify counts it, so a caller that runs Verify after a miss
// counts the job once.
func (e *Engine) Cached(job VerifyJob) (*VerifyResult, bool, error) {
	r, err := e.resolveVerify(job)
	if err != nil || r.cache == nil {
		return nil, false, err
	}
	res, ok := r.cache.Get(r.key)
	if !ok {
		return nil, false, nil
	}
	e.remember(r)
	res.Cached = true
	return res, true, nil
}

// verifyRun is a verify job resolved as far as the result cache: the
// checker config and generation options, the cache the job may use (nil
// for none) and its key there, the raw-text key to index once that key
// is cached, and the spec if finding the key took a parse.
type verifyRun struct {
	cfg        VerifyConfig
	opts       Options
	cache      *VerifyResultCache
	key, alias string
	spec       *Spec
}

// resolveVerify is what Verify and Cached share, so a hit Cached finds is
// the entry Verify would serve.
func (e *Engine) resolveVerify(job VerifyJob) (verifyRun, error) {
	r := verifyRun{spec: job.Spec}
	var err error
	if r.opts, err = subjectOptions(job.Protocol, job.Spec, job.Source, job.Mode, job.Options, job.PendingLimit); err != nil {
		return r, err
	}
	if r.cfg, err = e.verifyConfig(job.Config); err != nil {
		return r, err
	}
	// A commutation-audit run bypasses the cache in BOTH directions: a
	// cached verdict would skip the very re-execution the audit exists
	// to perform, and an audited result (which may carry "por-audit"
	// violations no plain run produces) must never be served to a plain
	// run.
	if job.Protocol != nil || job.NoCache || r.cfg.CommuteAudit {
		return r, nil
	}
	if r.cache, err = e.Cache(); err != nil || r.cache == nil {
		return r, err
	}
	err = e.cacheKey(&r, job.Source)
	return r, err
}

// cacheKey sets r.key, the job's result-cache key; it is the one
// function outside internal/verify that calls verify.CacheKey. The key
// hashes the canonical spec text, so formatting variants of one spec
// share an entry. A Source job first hashes its raw text and looks that
// up in the index: a text seen before costs one SHA-256 of its bytes, and
// only an unseen one is parsed (into r.spec) and formatted, its hash left
// in r.alias for remember.
func (e *Engine) cacheKey(r *verifyRun, source string) error {
	gen := r.opts.KeyString()
	if source != "" {
		alias := verify.CacheKey(source, gen, r.cfg)
		e.mu.Lock()
		r.key = e.keys[alias]
		e.mu.Unlock()
		if r.key != "" {
			return nil
		}
		var err error
		if r.spec, err = dsl.Parse(source); err != nil {
			return err
		}
		r.alias = alias
	}
	r.key = verify.SpecKey(r.spec, gen, r.cfg)
	return nil
}

// remember adds r's raw-text key to the index. Call it only once r.key
// is in the cache. An index as large as the cache starts over, so it
// never outgrows the cache however many formatting variants of one spec
// arrive.
func (e *Engine) remember(r verifyRun) {
	if r.alias == "" {
		return
	}
	n := r.cache.Len()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.keys == nil || len(e.keys) >= n {
		e.keys = make(map[string]string)
	}
	e.keys[r.alias] = r.key
}

// Simulate runs a simulation job under ctx. Cancellation is observed on
// the scheduler step loop; the partial Stats come back with
// Stats.Canceled set and a nil error.
func (e *Engine) Simulate(ctx context.Context, job SimulateJob) (SimStats, error) {
	spec, proto, opts, err := resolveSubject(job.Protocol, job.Spec, job.Source, job.Mode, job.Options, job.PendingLimit)
	if err != nil {
		return SimStats{}, err
	}
	if proto == nil {
		if proto, err = core.GenerateWithWarnings(spec, opts, e.warn); err != nil {
			return SimStats{}, err
		}
	}
	cfg := job.Config
	if cfg.Workload == nil {
		return SimStats{}, fmt.Errorf("simulate job needs Config.Workload")
	}
	if cfg.Caches, err = resolveCaches(cfg.Caches, 3); err != nil {
		return SimStats{}, err
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 50_000
	}
	if fn := job.OnProgress; fn != nil {
		cfg.Progress = func(p sim.Progress) { fn(p) }
	}
	return sim.RunCtx(ctx, proto, cfg)
}

// Litmus runs a litmus-oracle job under ctx. Cancellation is observed
// between interleaving states; the partial Report comes back with
// Report.Canceled set and a nil error (interrupted tests carry the
// context error in their per-test Err).
func (e *Engine) Litmus(ctx context.Context, job LitmusJob) (*LitmusReport, error) {
	if err := verify.CheckCaches(job.Caches); err != nil {
		return nil, err
	}
	spec, proto, opts, err := resolveSubject(job.Protocol, job.Spec, job.Source, job.Mode, job.Options, job.PendingLimit)
	if err != nil {
		return nil, err
	}
	if proto == nil {
		if proto, err = core.GenerateWithWarnings(spec, opts, e.warn); err != nil {
			return nil, err
		}
	}
	tests, err := litmus.ByName(job.Tests)
	if err != nil {
		return nil, err
	}
	ax := litmus.DefaultAxiom(proto)
	if job.Axiom != "" {
		if ax, err = litmus.ParseAxiom(job.Axiom); err != nil {
			return nil, err
		}
	}
	lopts := litmus.Options{
		Caches: job.Caches, MaxStates: job.MaxStates,
		Exhaustive: job.Exhaustive || job.Runs == 0,
		Runs:       job.Runs, Seed: job.Seed,
	}
	var sink func(litmus.Progress)
	if fn := job.OnProgress; fn != nil {
		sink = func(p litmus.Progress) { fn(p) }
	}
	return litmus.RunSuite(ctx, proto, tests, ax, lopts, sink), nil
}

// Fuzz runs a campaign job under ctx. Workers observe cancellation
// before claiming each seed (and inside each seed's model checks at
// level boundaries); the partial Report comes back with Report.Canceled
// set, covering only the seeds that completed.
func (e *Engine) Fuzz(ctx context.Context, job FuzzJob) (*FuzzReport, error) {
	def := fuzz.DefaultConfig()
	cfg := def
	if job.Config != nil {
		cfg = *job.Config
	}
	var err error
	if cfg.Caches, err = resolveCaches(cfg.Caches, def.Caches); err != nil {
		return nil, err
	}
	cfg.MaxStates = orDefault(cfg.MaxStates, def.MaxStates)
	if cfg.Parallelism == 0 && e.parallelism > 0 {
		cfg.Parallelism = e.parallelism
	}
	if cfg.Cache == nil {
		cache, err := e.Cache()
		if err != nil {
			return nil, err
		}
		cfg.Cache = cache
	}
	if fn := job.OnProgress; fn != nil {
		cfg.Progress = func(p fuzz.Progress) { fn(p) }
	}
	return fuzz.RunCtx(ctx, job.First, job.Last, cfg)
}

// LoadSpec resolves an SSP from a file path (when file is non-empty) or
// a registry name, and parses it — the shared front half of every CLI's
// -protocol/-file flag pair.
func LoadSpec(name, file string) (*Spec, error) {
	if file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return dsl.Parse(string(b))
	}
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return dsl.Parse(e.Source)
}

// lookup resolves a registry name. Builtins resolve from protocols.All
// without touching the fuzz package; only a miss lists fuzz.Entries.
func lookup(name string) (BuiltinEntry, error) {
	if e, ok := protocols.Lookup(name); ok {
		return e, nil
	}
	more, err := fuzz.Entries()
	if err != nil {
		return BuiltinEntry{}, err
	}
	for _, e := range more {
		if e.Name == name {
			return e, nil
		}
	}
	return BuiltinEntry{}, fmt.Errorf("unknown protocol %q", name)
}
