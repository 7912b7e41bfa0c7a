package fuzz

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"protogen/internal/analyze"
	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/litmus"
	"protogen/internal/sim"
	"protogen/internal/verify"
)

// Modes enumerates the three generation modes every spec is pushed
// through, in campaign order: it is core.Modes, the one mode list.
var Modes = core.Modes

// Config tunes a campaign.
type Config struct {
	// Families restricts the shape pool by canonical name; nil draws from
	// every shipped (non-defective) shape. Broken shapes participate only
	// when named explicitly.
	Families []string
	// Caches / MaxStates configure the model checker; channels keep
	// verify.DefaultConfig's capacity. The campaign checks at small
	// scale by design: 2 caches explore every interleaving class the
	// generator distinguishes, in milliseconds.
	Caches    int
	MaxStates int
	// SimSteps drives the randomized-schedule SC check; 0 disables it.
	SimSteps int
	// Parallelism is the campaign worker count (0 = GOMAXPROCS). Each
	// worker runs its model checks sequentially to avoid oversubscribing.
	Parallelism int
	// Shrink minimizes failing specs to reproducers in Report entries.
	Shrink bool
	// NoLint disables the static-analyzer pre-pass: no per-spec lint
	// verdict is recorded and the lint-vs-checker cross-check is off.
	NoLint bool
	// NoPOR disables the reduced-vs-full cross-check: every mode whose
	// full exploration completed is re-checked with partial-order
	// reduction on (verify.Config.Reduce) and the two verdicts must
	// agree on OK — a per-seed soundness differential for the reduction,
	// the fifth verdict dimension. Only OK is compared: a buggy spec can
	// legitimately witness a different violation first under reduction.
	NoPOR bool
	// NoLitmus disables the litmus-oracle cross-check: no per-spec
	// litmus verdict is recorded and the litmus-vs-checker cross-check
	// is off. The oracle explores the quick litmus suite exhaustively
	// on the non-stalling design of every checker-clean spec, under the
	// axiom the protocol's access set implies (weak when it implements
	// acquires, SC otherwise).
	NoLitmus bool
	// LitmusMaxStates bounds each exhaustive litmus exploration
	// (0 = the litmus package default). Hitting the bound records a
	// "capped" litmus verdict, not a failure.
	LitmusMaxStates int
	// Cache memoizes per-mode verify results across campaign runs,
	// keyed by canonical spec text + generation options + checker
	// config (see verify.CacheKey and docs/CACHING.md). nil disables
	// caching. With a warm cache, a rerun over an identical seed range
	// performs zero re-verifications — only the (cheap) simulator
	// cross-checks repeat.
	Cache *verify.ResultCache
	// Progress, when non-nil, is called after each seed's oracle run
	// completes with cumulative campaign counters. Calls are serialized
	// under an internal mutex (workers finish seeds concurrently) and
	// must return promptly; nil costs one pointer check per seed.
	Progress func(Progress)
}

// Progress is one cumulative snapshot of a running campaign.
type Progress struct {
	SeedsDone  int // seeds whose oracle run has completed
	SeedsTotal int // seeds in the configured range
	Fail       int // failing seeds so far
	RanChecks  int // model checks actually explored so far
	CacheHits  int // verdicts served from the result cache so far
}

// Kind identifies the job a progress event belongs to.
func (Progress) Kind() string { return "fuzz" }

func (p Progress) String() string {
	return fmt.Sprintf("fuzz: %d/%d seeds, %d fail, %d checks run, %d cache hits",
		p.SeedsDone, p.SeedsTotal, p.Fail, p.RanChecks, p.CacheHits)
}

// DefaultConfig returns the standard campaign scale.
func DefaultConfig() Config {
	return Config{
		Caches:      2,
		MaxStates:   500_000,
		SimSteps:    3000,
		Parallelism: 0,
		Shrink:      true,
	}
}

// ModeResult is one generation mode's verification outcome.
type ModeResult struct {
	Mode      string `json:"mode"`
	States    int    `json:"states"`
	Edges     int    `json:"edges"`
	Depth     int    `json:"depth"`
	OK        bool   `json:"ok"`
	Complete  bool   `json:"complete"`
	Violation string `json:"violation,omitempty"` // kind of the first violation
	Detail    string `json:"detail,omitempty"`
	// Cached marks a verdict served from the result cache instead of a
	// fresh model check.
	Cached bool `json:"cached,omitempty"`
}

// fill copies a verify Result's observables into the mode result.
func (mr *ModeResult) fill(res *verify.Result) {
	mr.States, mr.Edges, mr.Depth = res.States, res.Edges, res.Depth
	mr.OK, mr.Complete = res.OK(), res.Complete
	if !res.OK() {
		mr.Violation = res.Violations[0].Kind
		mr.Detail = res.Violations[0].Detail
	}
}

// Failure identifies what a spec's campaign run tripped over.
type Failure struct {
	// Class groups kinds the shrinker treats as equivalent: "safety"
	// (SWMR / data-value), "error" (interpreter apply errors), "liveness"
	// (deadlock / stuck), "differential" (modes disagree), "sim" (SC
	// violation or scheduler deadlock), "generate" (pipeline error),
	// "capped" (a mode hit the state cap; inconclusive, never shrunk),
	// "lint-vs-checker" (the analyzer called a checker-clean spec
	// broken — one oracle lies), "litmus"
	// (the litmus oracle wedged or errored), or "litmus-vs-checker"
	// (the exhaustive litmus oracle reached an axiom-forbidden outcome
	// on a checker-clean spec — an ordering bug the SC-only oracles
	// cannot see, or an oracle bug; a campaign failure either way), or
	// "por-vs-full" (a partial-order-reduced re-check disagreed with the
	// full exploration's verdict — a reduction soundness bug).
	Class string `json:"class"`
	// Kind is the concrete violation kind or mismatch description.
	Kind string `json:"kind"`
	// Mode is the generation mode the failure was observed in ("" for
	// differential disagreements).
	Mode string `json:"mode,omitempty"`
	// Detail is the first violation's detail line.
	Detail string `json:"detail,omitempty"`
}

// IsZero reports a clean run.
func (f Failure) IsZero() bool { return f.Class == "" }

func (f Failure) String() string {
	if f.IsZero() {
		return "pass"
	}
	s := f.Class + ":" + f.Kind
	if f.Mode != "" {
		s += " (" + f.Mode + ")"
	}
	return s
}

// FailureClass maps a verifier violation kind to its shrink-equivalence
// class. SWMR and data-value breaches are one class (the same root cause
// regularly witnesses as either), as are the two liveness formulations;
// interpreter apply errors are their own class so a shrink cannot trade
// a real invariant breach for a degenerate spec that merely crashes the
// engine.
func FailureClass(kind string) string {
	switch kind {
	case "SWMR", "data-value":
		return "safety"
	case "deadlock", "stuck":
		return "liveness"
	}
	return kind
}

// SpecReport is one spec's campaign outcome.
type SpecReport struct {
	Seed         uint64       `json:"seed"`
	Family       string       `json:"family"`
	PendingLimit int          `json:"pending_limit"`
	SimSeed      int64        `json:"sim_seed"`
	Modes        []ModeResult `json:"modes,omitempty"`
	SimStats     string       `json:"sim,omitempty"`
	// Lint is the spec-layer static-analyzer verdict ("clean",
	// "suspect" or "broken"; empty when linting is disabled) — the
	// third verdict dimension next to the checker and the simulator.
	Lint string `json:"lint,omitempty"`
	// Litmus is the weak-memory oracle verdict ("clean" when the quick
	// suite's exhaustive outcome sets hold no axiom-forbidden outcome,
	// "capped" when an exploration hit the state bound and the verdict
	// is inconclusive; empty when the oracle is disabled or an earlier
	// failure stopped the run) — the fourth verdict dimension.
	Litmus string `json:"litmus,omitempty"`
	// POR is the reduced-vs-full verdict ("clean" when every mode's
	// partial-order-reduced re-check agreed with its full verdict,
	// "capped" when a reduced exploration hit the state bound and the
	// comparison is inconclusive, "divergent" on disagreement; empty
	// when the cross-check is disabled or an earlier failure stopped
	// the run) — the fifth verdict dimension.
	POR       string  `json:"por,omitempty"`
	Failure   Failure `json:"failure"`
	Minimized string  `json:"-"` // shrunk reproducer source (failures only)
	ElapsedMS int64   `json:"elapsed_ms"`
	Source    string  `json:"-"`
}

// OK reports a clean spec run.
func (r *SpecReport) OK() bool { return r.Failure.IsZero() }

// checks counts the spec's model checks that were explored and those
// served from the result cache. A generate/mode failure appends a zero
// ModeResult before CheckSource returns — no exploration ran, so it
// counts as neither; every real check has ≥1 state.
func (r *SpecReport) checks() (ran, cached int) {
	for _, mr := range r.Modes {
		switch {
		case mr.Cached:
			cached++
		case mr.States > 0:
			ran++
		}
	}
	return ran, cached
}

// Report aggregates a campaign.
type Report struct {
	Specs    []SpecReport `json:"specs"`
	Pass     int          `json:"pass"`
	Fail     int          `json:"fail"`
	Families []string     `json:"families"`
	// RanChecks counts model checks actually explored this run —
	// the re-verifications a warm result cache eliminates;
	// CachedChecks counts verdicts served from the cache.
	RanChecks    int `json:"ran_checks"`
	CachedChecks int `json:"cached_checks,omitempty"`
	// Canceled marks a partial campaign: the context given to RunCtx
	// was canceled before every seed completed. Specs then holds only
	// the completed seeds, still in seed order; SeedsTotal records the
	// configured range so callers can report "N of M".
	Canceled   bool `json:"canceled,omitempty"`
	SeedsTotal int  `json:"seeds_total"`
}

// Summary is a one-line human rendering.
func (r *Report) Summary() string {
	s := fmt.Sprintf("%d specs: %d pass, %d fail (%d families)",
		len(r.Specs), r.Pass, r.Fail, len(r.Families))
	if r.Canceled {
		s += fmt.Sprintf(" — canceled after %d of %d seeds", len(r.Specs), r.SeedsTotal)
	}
	return s
}

// progressSink accumulates the campaign's cumulative counters and
// fans each completed seed out to the configured Progress callback.
// Workers finish seeds concurrently; the mutex both guards the
// counters and serializes the callback invocations (the documented
// Config.Progress contract).
type progressSink struct {
	mu  sync.Mutex
	cur Progress //protogen:guardedby mu
	fn  func(Progress)
}

// seedDone folds one completed seed's outcome into the counters and
// reports the new snapshot. No-op when no callback is configured.
func (s *progressSink) seedDone(r *SpecReport) {
	if s.fn == nil {
		return
	}
	s.mu.Lock()
	s.cur.SeedsDone++
	if !r.OK() {
		s.cur.Fail++
	}
	ran, cached := r.checks()
	s.cur.RanChecks += ran
	s.cur.CacheHits += cached
	s.fn(s.cur)
	s.mu.Unlock()
}

// splitmix64 is the seed scrambler (Steele et al.); good dispersion from
// sequential campaign seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SpecForSeed maps a campaign seed to a concrete (family, pending-limit,
// sim-seed) triple over the given shape pool. The mapping is total and
// deterministic: every uint64 yields a valid spec.
func SpecForSeed(seed uint64, pool []Params) (Params, int, int64) {
	if len(pool) == 0 {
		pool = Shapes()
	}
	r := splitmix64(seed)
	shape := pool[r%uint64(len(pool))]
	limit := 1 + int((r>>16)%3) // L in 1..3
	simSeed := int64(r>>24)%100_000 + 1
	return shape, limit, simSeed
}

// pool resolves the configured family pool.
func (cfg Config) pool() ([]Params, error) {
	if len(cfg.Families) == 0 {
		return Shapes(), nil
	}
	var out []Params
	for _, name := range cfg.Families {
		p, ok := ShapeByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown family %q", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// RunCtx executes the differential campaign over the half-open seed
// range [first, last): each seed's spec is generated in all three modes,
// model checked in each, the verdicts cross-checked, and the simulator's
// SC checker run on the non-stalling protocol; failing specs are shrunk
// to minimal reproducers when cfg.Shrink is set. Reports come back in
// seed order regardless of parallelism. Workers observe ctx before
// claiming each seed (the checker inside a seed, at BFS level
// boundaries); a canceled campaign's report covers only the seeds that
// completed, with Report.Canceled set.
func RunCtx(ctx context.Context, first, last uint64, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pool, err := cfg.pool()
	if err != nil {
		return nil, err
	}
	if last < first {
		return nil, fmt.Errorf("empty seed range [%d, %d)", first, last)
	}
	const maxSeeds = 1 << 24 // each seed is three model checks; cap well below int overflow
	if last-first > maxSeeds {
		return nil, fmt.Errorf("seed range [%d, %d) spans %d seeds, max %d per campaign", first, last, last-first, maxSeeds)
	}
	n := int(last - first)
	specs := make([]SpecReport, n)
	done := make([]bool, n)
	rep := &Report{SeedsTotal: n}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	sink := &progressSink{cur: Progress{SeedsTotal: n}, fn: cfg.Progress}
	for g := 0; g < max(workers, 1); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				r := checkSeedCtx(ctx, first+uint64(i), pool, cfg)
				if r.Failure.Class == "canceled" {
					// The claimed seed was interrupted mid-oracle (the
					// oracle marks those explicitly); its report is a
					// nondeterministic partial run, not a verdict. Drop
					// it rather than let it masquerade as a completed
					// seed. A verdict that completed just before ctx
					// fired is NOT dropped — completed work stands.
					return
				}
				// Shrinking happens in the worker so failing campaigns
				// minimize in parallel too (each shrink is sequential by
				// design; the pool provides the concurrency). Capped runs
				// are inconclusive, not reproducers — never shrink them.
				// shrinkCtx aborts mid-minimization on cancel: the seed's
				// completed verdict is kept, only Minimized stays empty.
				if !r.OK() && cfg.Shrink && r.Failure.Class != "capped" {
					if minSrc, err := shrinkCtx(ctx, r.Source, r.Failure, r.SimSeed, cfg); err == nil {
						r.Minimized = minSrc
					}
				}
				if r.OK() {
					// Passing specs never need their source again; keeping
					// it would retain every generated spec for the whole
					// campaign.
					r.Source = ""
				}
				specs[i] = r
				done[i] = true
				sink.seedDone(&r)
			}
		}()
	}
	wg.Wait()
	doneCount := 0
	for _, d := range done {
		if d {
			doneCount++
		}
	}
	// Canceled means seeds were actually left unfinished. A context that
	// fires after the last seed completes changes nothing — workers only
	// skip or drop seeds when they observe cancellation, so a full
	// report is a full campaign regardless of ctx's final state.
	rep.Canceled = doneCount < n
	fams := map[string]bool{}
	for i := range specs {
		if !done[i] {
			continue
		}
		r := specs[i]
		rep.Specs = append(rep.Specs, r)
		fams[r.Family] = true
		if r.OK() {
			rep.Pass++
		} else {
			rep.Fail++
		}
		ran, cached := r.checks()
		rep.RanChecks += ran
		rep.CachedChecks += cached
	}
	for f := range fams {
		rep.Families = append(rep.Families, f)
	}
	sort.Strings(rep.Families)
	return rep, nil
}

func checkSeedCtx(ctx context.Context, seed uint64, pool []Params, cfg Config) SpecReport {
	shape, limit, simSeed := SpecForSeed(seed, pool)
	r := checkSourceCtx(ctx, shape.Source(), limit, simSeed, cfg)
	r.Seed = seed
	r.Family = shape.Name()
	return r
}

// CheckSource runs the differential oracle on one spec source: parse,
// generate all three modes (at pending limit L), model check each,
// cross-check verdicts, then run the simulator SC check on the
// non-stalling protocol. It is the single oracle shared by the campaign,
// the shrinker and the corpus replay test.
func CheckSource(src string, limit int, simSeed int64, cfg Config) SpecReport {
	return checkSourceCtx(context.Background(), src, limit, simSeed, cfg)
}

// checkSourceCtx is CheckSource under a context. A report interrupted
// mid-oracle carries a "canceled" failure class; the campaign discards
// such reports (they are partial, not verdicts).
func checkSourceCtx(ctx context.Context, src string, limit int, simSeed int64, cfg Config) SpecReport {
	start := time.Now()
	r := SpecReport{PendingLimit: limit, SimSeed: simSeed, Source: src}
	defer func() { r.ElapsedMS = time.Since(start).Milliseconds() }()

	spec, err := dsl.Parse(src)
	if err != nil {
		r.Failure = Failure{Class: "generate", Kind: "parse", Detail: err.Error()}
		return r
	}
	r.Family = spec.Name

	// Static-analyzer pre-pass: record the spec-layer verdict as the
	// third verdict dimension. Only error-severity findings (statically
	// provable defects) may contradict the checker; warnings are
	// advisory by the analyzer's one-sided-error policy. The model
	// checks run regardless, which is what lets the lint-vs-checker
	// cross-check hold the analyzer to the checker's ground truth.
	var lintDetail string
	if !cfg.NoLint {
		lrep := analyze.CheckSpec(spec)
		r.Lint = lrep.Verdict()
		if lrep.Broken() {
			for _, d := range lrep.Diags {
				if d.Severity == analyze.SevError {
					lintDetail = d.String()
					break
				}
			}
		}
	}

	// One protocol per mode for the whole seed: whichever consumer first
	// needs a mode's design — a check that misses the cache, sim, litmus
	// — generates it, and the later ones reuse it (nothing downstream
	// writes to a Protocol).
	protos := make([]*ir.Protocol, len(Modes)) // by index in Modes

	for i, mode := range Modes {
		mr, failure := checkMode(ctx, spec, mode, limit, cfg, false, &protos[i])
		r.Modes = append(r.Modes, mr)
		if ctx.Err() != nil {
			r.Failure = Failure{Class: "canceled", Kind: "context", Detail: ctx.Err().Error()}
			return r
		}
		if failure.Class == "generate" {
			r.Failure = failure
			return r
		}
	}

	// A capped exploration has no verdict: its OK=true only means "no
	// violation found so far", which must not enter the differential
	// comparison (a capped clean mode next to a complete failing mode is
	// an inconclusive run, not a mode disagreement).
	for _, mr := range r.Modes {
		if !mr.Complete {
			r.Failure = Failure{Class: "capped", Kind: "state-cap", Mode: mr.Mode,
				Detail: fmt.Sprintf("exploration capped at %d states", mr.States)}
			return r
		}
	}
	// POR cross-check: re-check every mode with partial-order reduction
	// on and hold the reduced verdict to the full one. Only OK is
	// compared — a buggy spec may legitimately witness a different
	// violation first under reduction — and the check runs on failing
	// specs too: a reduction that prunes (or invents) a verdict is
	// exactly what this dimension exists to catch.
	if !cfg.NoPOR {
		r.POR = "clean"
		for i, mode := range Modes {
			rmr, failure := checkMode(ctx, spec, mode, limit, cfg, true, &protos[i])
			if ctx.Err() != nil {
				r.POR = ""
				r.Failure = Failure{Class: "canceled", Kind: "context", Detail: ctx.Err().Error()}
				return r
			}
			if failure.Class == "generate" {
				r.POR = ""
				r.Failure = failure
				return r
			}
			if !rmr.Complete {
				r.POR = "capped"
				continue
			}
			if rmr.OK != r.Modes[i].OK {
				r.POR = "divergent"
				r.Failure = Failure{Class: "por-vs-full", Kind: "reduced-verdict-divergence", Mode: mode,
					Detail: fmt.Sprintf("full OK=%v (%s), reduced OK=%v (%s)",
						r.Modes[i].OK, r.Modes[i].Violation, rmr.OK, rmr.Violation)}
				return r
			}
		}
	}

	// Differential cross-check: the three designs implement the same SSP
	// and must agree on whether it is correct.
	for _, mr := range r.Modes[1:] {
		if mr.OK != r.Modes[0].OK {
			r.Failure = Failure{
				Class: "differential",
				Kind:  fmt.Sprintf("%s=%v vs %s=%v", r.Modes[0].Mode, r.Modes[0].OK, mr.Mode, mr.OK),
			}
			return r
		}
	}
	// Agreed-on verdict; a shared failure is still a (caught) bad spec.
	for _, mr := range r.Modes {
		if !mr.OK {
			r.Failure = Failure{
				Class:  FailureClass(mr.Violation),
				Kind:   mr.Violation,
				Mode:   mr.Mode,
				Detail: mr.Detail,
			}
			return r
		}
	}

	// Simulator and litmus cross-checks both run on the non-stalling
	// design.
	var p *ir.Protocol
	if cfg.SimSteps > 0 || !cfg.NoLitmus {
		opts := core.NonStallingOpts()
		opts.PendingLimit = limit
		var err error
		p, err = generated(&protos[slices.Index(Modes, "nonstalling")], spec, opts)
		if err != nil {
			r.Failure = Failure{Class: "generate", Kind: "generate", Mode: "nonstalling", Detail: err.Error()}
			return r
		}
	}

	// Simulator cross-check on the non-stalling design: randomized
	// schedules with the per-location SC history checker.
	if cfg.SimSteps > 0 {
		for _, w := range []sim.Workload{sim.Contended{}, sim.Migratory{}} {
			st, err := sim.RunCtx(ctx, p, sim.Config{
				Caches: max(cfg.Caches, 2), Steps: cfg.SimSteps,
				Seed: simSeed, Workload: w,
			})
			if err != nil {
				r.Failure = Failure{Class: "sim", Kind: "sim-deadlock", Mode: "nonstalling", Detail: err.Error()}
				return r
			}
			if st.Canceled {
				r.Failure = Failure{Class: "canceled", Kind: "context"}
				return r
			}
			if st.SCViolations > 0 {
				r.Failure = Failure{Class: "sim", Kind: "sc-violation", Mode: "nonstalling",
					Detail: fmt.Sprintf("%d SC violations under %s", st.SCViolations, w.Name())}
				return r
			}
			if r.SimStats == "" {
				r.SimStats = st.String()
			}
		}
	}

	// Litmus cross-check: explore the quick litmus suite exhaustively on
	// the non-stalling design and hold the exact outcome sets to the
	// axiom the protocol's access set implies. An axiom-forbidden
	// outcome on a spec the checker just passed clean is an ordering bug
	// the SC-only oracles cannot see (or an oracle bug) — a campaign
	// failure either way, mirroring the lint-vs-checker contract.
	if !cfg.NoLitmus {
		ax := litmus.DefaultAxiom(p)
		r.Litmus = "clean"
		for _, tc := range litmus.QuickSuite() {
			res := litmus.RunTest(ctx, p, tc, ax, litmus.Options{
				Caches: max(cfg.Caches, 2), MaxStates: cfg.LitmusMaxStates, Exhaustive: true,
			})
			if ctx.Err() != nil {
				r.Litmus = ""
				r.Failure = Failure{Class: "canceled", Kind: "context", Detail: ctx.Err().Error()}
				return r
			}
			if len(res.Forbidden) > 0 {
				r.Litmus = "forbidden"
				r.Failure = Failure{Class: "litmus-vs-checker", Kind: "litmus-forbidden-checker-clean", Mode: "nonstalling",
					Detail: fmt.Sprintf("%s under %s: forbidden outcome {%s}", tc.Name, ax, res.Forbidden[0])}
				return r
			}
			if len(res.Stuck) > 0 || res.Err != "" {
				detail := res.Err
				if detail == "" {
					detail = res.Stuck[0]
				}
				r.Litmus = "stuck"
				r.Failure = Failure{Class: "litmus", Kind: "litmus-stuck", Mode: "nonstalling", Detail: detail}
				return r
			}
			if !res.Complete {
				r.Litmus = "capped"
			}
		}
	}

	// Lint-vs-checker cross-check: the analyzer claims only statically
	// provable defects at error severity, so "broken" on a spec the
	// checker and simulator just passed clean means one of the two
	// oracles is wrong — a campaign failure either way.
	if r.Lint == "broken" {
		r.Failure = Failure{Class: "lint-vs-checker", Kind: "lint-broken-checker-clean", Detail: lintDetail}
	}
	return r
}

// generated returns the protocol in *slot, first generating it from
// spec under opts if no earlier consumer in the seed's run has. The
// parsed spec is shared across modes: Generate clones it internally.
func generated(slot **ir.Protocol, spec *ir.Spec, opts core.Options) (*ir.Protocol, error) {
	if *slot == nil {
		p, err := core.Generate(spec, opts)
		if err != nil {
			return nil, err
		}
		*slot = p
	}
	return *slot, nil
}

// checkMode model-checks one mode of one spec, consulting the result
// cache first when one is configured (a hit skips generation too — the
// cache key needs only the spec and options); a miss checks the mode's
// protocol in *slot, generating it if need be. With reduce set, the
// check runs under partial-order reduction (a distinct cache key:
// verify.CacheKey includes Config.Reduce).
func checkMode(ctx context.Context, spec *ir.Spec, mode string, limit int, cfg Config, reduce bool, slot **ir.Protocol) (ModeResult, Failure) {
	mr := ModeResult{Mode: mode}
	opts, err := core.OptionsForMode(mode)
	if err != nil {
		return mr, Failure{Class: "generate", Kind: "mode", Mode: mode, Detail: err.Error()}
	}
	opts.PendingLimit = limit
	vcfg := verify.DefaultConfig()
	vcfg.Caches, vcfg.MaxStates = cfg.Caches, cfg.MaxStates
	vcfg.Parallelism = 1 // campaign workers provide the parallelism
	vcfg.Reduce = reduce
	var key string
	if cfg.Cache != nil {
		key = verify.SpecKey(spec, opts.KeyString(), vcfg)
	}
	// A cache write failure only loses memoization; the verdict stands.
	res, _, err := cfg.Cache.CheckCtx(ctx, key, vcfg, func() (*ir.Protocol, error) {
		return generated(slot, spec, opts)
	})
	if err != nil {
		return mr, Failure{Class: "generate", Kind: "generate", Mode: mode, Detail: err.Error()}
	}
	mr.fill(res)
	mr.Cached = res.Cached
	return mr, Failure{}
}

// FamilyNames lists the shipped family names in canonical order.
func FamilyNames() []string {
	var out []string
	for _, p := range Shapes() {
		out = append(out, p.Name())
	}
	return out
}
