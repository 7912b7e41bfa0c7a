// Package verify is an explicit-state model checker for generated
// protocols — the role Murphi plays in the paper (§VI). It enumerates the
// reachable state space of N caches + directory + bounded virtual-channel
// network with a small rotating data-value domain, and checks:
//
//   - SWMR: at most one writer, and no readers alongside a writer, over
//     stable-state permissions (the paper verifies physical-time SWMR
//     "except in one well-known situation" — the single access a
//     transaction performs after its epoch logically ended; those
//     completion accesses are flagged exempt by the engine).
//   - Data-value: every readable stable copy equals the last written
//     value, every transient load hit reads the last written value, and
//     every non-exempt completed load returns it.
//   - Deadlock: no reachable state without enabled rules, and (optional)
//     no reachable state from which quiescence is unreachable — the
//     terminal-SCC formulation that also catches stuck transactions.
//     No edge graph is kept for it: each state keeps one drain pointer,
//     the successor its first delivery rule reaches, and a state is live
//     when it is quiescent or its drain successor is live. On a correct
//     protocol that one walk proves every state; only the states it
//     leaves open are re-expanded, to settle the verdict exactly.
//
// The protocol decides whether the first two apply: one with acquire
// fences (ir.Protocol.Acquires, TSO-CC) keeps stale Shared copies by
// design and is checked for deadlock and quiescence only.
//
// Exploration is a level-synchronized parallel BFS: each depth level's
// frontier is expanded by a worker pool (successor generation, invariant
// evaluation, binary canonical keys, visited-set probes all run
// concurrently), then a sequential merge assigns state indices, records
// edges and violations, and builds the next frontier in the exact order
// the classic FIFO BFS would — so States, Edges, Depth, violations and
// witness traces are identical for every Parallelism setting, including 1.
//
// States at rest are bytes: the frontier holds each state as a flat
// engine snapshot (~50 B on 3-cache MSI) in the slab of the worker that
// found it, and an engine.System exists only as a worker's scratch space —
// one restored from the snapshot of the state being expanded, one that
// every rule is applied to and then reverted from. The snapshot keeps the
// concrete frame (cache identities, bag order) the state was discovered
// in, so rule ordinals — and with them the witness traces replayed from
// them — are executions of the real system, not paths through canonical
// representatives.
//
// The visited set is internal/store's open-addressing fingerprint
// table, built by one of its two constructors (Config.Fingerprint):
// exact mode adds an arena of full canonical keys, so membership is
// certain and fingerprint collisions are counted (Result.FalseMerges);
// fingerprint mode keeps the 64-bit fingerprints alone — 3.0-3.2x less
// visited-set memory as measured on 3-cache MSI (≥3.1x pinned on
// TestFingerprintBytesReduction's capped run), which is what bounds
// large cache counts. Verify results can also be memoized across runs
// through ResultCache, keyed by the canonical spec text plus generation
// and checker configuration (see docs/CACHING.md).
package verify

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"protogen/internal/depend"
	"protogen/internal/engine"
	"protogen/internal/ir"
	"protogen/internal/store"
)

// Config tunes the exploration.
type Config struct {
	Caches        int
	Capacity      int
	Values        int
	MaxStates     int  // exploration cap; Complete=false when hit
	CheckLiveness bool // quiescence reachability (keeps a drain pointer per state)
	Symmetry      bool // canonicalize cache identities (Murphi scalarset)
	MaxViolations int
	// Parallelism is the worker count for frontier expansion: 0 means
	// GOMAXPROCS, 1 runs everything inline (sequential). Results are
	// identical at every setting.
	Parallelism int
	// Fingerprint switches the visited set from full canonical keys to
	// 64-bit state fingerprints (hash compaction, as in Murphi's -b):
	// 3.0-3.2x less memory per state as measured on 3-cache MSI (≥3.1x
	// is pinned on TestFingerprintBytesReduction's capped run), at a
	// false-merge probability of about n²/2⁶⁵ — negligible below tens of
	// millions of states. States, Edges, Depth and traces match exact
	// mode whenever no fingerprint collision occurs; to learn whether one
	// does on a new protocol, run exact mode once and read
	// Result.FalseMerges.
	Fingerprint bool
	// Reduce enables partial-order reduction: states whose enabled rules
	// at one cache node are statically invisible (internal/depend) and
	// dynamically unreferenced by the rest of the system expand only that
	// node's rules. Violation and liveness verdicts match full
	// exploration; States/Edges/Depth are (deterministically) smaller.
	// Reduction silently falls back to full exploration when the
	// protocol-level analysis is unsafe (Result.ReduceUnsafe).
	Reduce bool
	// CommuteAudit (requires Reduce) re-executes sampled (ample, skipped)
	// rule pairs in both orders at every reduced state and asserts the
	// final states agree — a runtime check of the static independence
	// relation. Any discrepancy is a hard "por-audit" violation. Audited
	// results are never served from or written to the result cache.
	CommuteAudit bool
	// Progress, when non-nil, is called after each completed BFS depth
	// level with a snapshot of the exploration. It runs on the merge
	// goroutine (never concurrently with itself) and must return
	// promptly; nil costs one pointer check per level. Progress never
	// affects results and is excluded from result-cache keys.
	Progress func(Progress)
}

// Progress is one level-boundary snapshot of a running exploration.
type Progress struct {
	States   int // states discovered so far
	Edges    int // edges recorded so far
	Depth    int // deepest level completed
	Frontier int // states awaiting expansion at the next level
	// Candidates / Emitted report reduction effectiveness live (both
	// cumulative): successors a full expansion would have generated vs
	// successors actually generated. Equal (and only then) when
	// Config.Reduce is off or never fired.
	Candidates int64
	Emitted    int64
}

// Kind identifies the job a progress event belongs to.
func (Progress) Kind() string { return "verify" }

func (p Progress) String() string {
	s := fmt.Sprintf("verify: %d states, %d edges, depth %d, frontier %d",
		p.States, p.Edges, p.Depth, p.Frontier)
	if p.Candidates > 0 {
		s += fmt.Sprintf(", succs %d/%d", p.Emitted, p.Candidates)
	}
	return s
}

// MaxCaches is the largest cache count any job may ask for. Cost, not
// representation, sets it (id-set masks are uint32, so 31 is the hard
// wall): symmetry reduction materialises n! permutations and every
// impure state takes the n! brute-force canonicalization, so a run
// capped at 2000 states takes 0.1 s at 5 caches, 4.6 s at 7, 47 s at 8
// and does not return at 10.
const MaxCaches = 8

// CheckCaches rejects a cache count above MaxCaches. It is the one
// bound every entry point applies before it builds a System: the
// Engine's Verify/Simulate/Litmus/Fuzz, the service's submit
// validation and the CLIs' -caches flag. Zero and negative counts pass;
// each job resolves them to its own default.
func CheckCaches(n int) error {
	if n > MaxCaches {
		return fmt.Errorf("%d caches exceeds the maximum of %d", n, MaxCaches)
	}
	return nil
}

// DefaultConfig mirrors the paper's setup: 3 caches, with symmetry
// reduction standing in for Murphi's scalarset. Parallelism 0 uses every
// core.
func DefaultConfig() Config {
	return Config{
		Caches: 3, Capacity: 4, Values: 2,
		MaxStates: 4_000_000, CheckLiveness: true, Symmetry: true,
		MaxViolations: 1,
	}
}

// QuickConfig is a 2-cache variant for fast unit tests.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Caches = 2
	return c
}

// Violation is one invariant failure with a witness trace.
type Violation struct {
	Kind   string
	Detail string
	Trace  []string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (trace length %d)", v.Kind, v.Detail, len(v.Trace))
}

// Result summarizes an exploration.
type Result struct {
	Protocol   string
	States     int
	Edges      int
	Depth      int
	Complete   bool
	Quiescent  int
	Violations []Violation
	// Canceled marks a partial result: the context given to CheckCtx was
	// canceled at a level boundary before exploration finished. Canceled
	// implies !Complete; canceled results are never cached.
	Canceled bool
	// Cached marks a result served from a ResultCache rather than a
	// fresh exploration. Never persisted: the cache strips it on Put and
	// the serving layer sets it on the returned copy.
	Cached bool `json:"Cached,omitempty"`
	// VisitedBytes is the visited table's allocated footprint: its slot
	// arrays, plus the key arena's chunks and positions in exact mode.
	VisitedBytes int64
	// FalseMerges counts the states fingerprint mode would falsely merge:
	// reachable states whose fingerprint equals an earlier, different
	// state's. Measured by every exact-mode run (which keeps such states
	// apart); always 0 in fingerprint mode, which cannot tell.
	FalseMerges int
	// Canonicalization strategy counters (see engine.CanonStats), summed
	// over all workers: CanonFast states took a single encoding,
	// CanonTieStates resolved signature ties by enumerating tie-group
	// orderings (CanonTieEncodes candidate suffixes tried in total), and
	// CanonFallbacks fell back to the full n!-permutation search. Zero
	// when symmetry reduction is off.
	CanonFast       int64 `json:"CanonFast,omitempty"`
	CanonTieStates  int64 `json:"CanonTieStates,omitempty"`
	CanonTieEncodes int64 `json:"CanonTieEncodes,omitempty"`
	CanonFallbacks  int64 `json:"CanonFallbacks,omitempty"`
	// Partial-order reduction counters (Config.Reduce). ReducedStates
	// counts states expanded through a proper ample subset;
	// CandidateSuccs / EmittedSuccs are the full-vs-emitted successor
	// totals (their ratio is the reduction ratio). ReduceUnsafe lists the
	// protocol-level analysis facts that disabled reduction entirely —
	// non-empty means the exploration silently ran full.
	// FusedSteps counts invisible rules executed inline by chain fusion
	// — each one an intermediate state the exploration never stored.
	ReducedStates  int64    `json:"ReducedStates,omitempty"`
	CandidateSuccs int64    `json:"CandidateSuccs,omitempty"`
	EmittedSuccs   int64    `json:"EmittedSuccs,omitempty"`
	FusedSteps     int64    `json:"FusedSteps,omitempty"`
	ReduceUnsafe   []string `json:"ReduceUnsafe,omitempty"`
	// Commutation-audit counters (Config.CommuteAudit): independent
	// pairs executed in both orders, and the discrepancies found (each
	// also reported as a "por-audit" violation).
	CommutePairs      int64 `json:"CommutePairs,omitempty"`
	CommuteMismatches int64 `json:"CommuteMismatches,omitempty"`
}

// OK reports whether the exploration found no violation. A run a bound
// stopped can be OK and still not PASS; Verdict is the verdict.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Verdict is a check's three-valued outcome.
type Verdict int

// The verdicts. Fail wins over Incomplete: a violation found on an
// explored prefix is a real one.
const (
	Pass       Verdict = iota // complete, with no violation
	Fail                      // a violation, complete or not
	Incomplete                // stopped by a bound (Result.Bound), with no violation
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "PASS"
	case Fail:
		return "FAIL"
	}
	return "INCOMPLETE"
}

// Verdict is the run's verdict. It is the one place PASS is decided:
// String, the CLI's exit status, the experiments' claims and the
// service's ok all read it.
func (r *Result) Verdict() Verdict {
	switch {
	case len(r.Violations) > 0:
		return Fail
	case !r.Complete:
		return Incomplete
	}
	return Pass
}

// Bound names what stopped an incomplete run: "canceled" when its
// context was, "capped" when it reached Config.MaxStates; "" on a
// complete run.
func (r *Result) Bound() string {
	switch {
	case r.Canceled:
		return "canceled"
	case !r.Complete:
		return "capped"
	}
	return ""
}

func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d states, %d edges, depth %d", r.Protocol, r.States, r.Edges, r.Depth)
	if bound := r.Bound(); bound != "" {
		fmt.Fprintf(&b, " (%s)", bound)
	}
	if v := r.Verdict(); v == Fail {
		fmt.Fprintf(&b, " — FAIL: %s", r.Violations[0])
	} else {
		fmt.Fprintf(&b, " — %s", v)
	}
	return b.String()
}

// frontierItem is one state awaiting expansion: its snapshot
// (engine.AppendSnapshot; a slice of the discovering worker's slab) and
// its state index.
type frontierItem struct {
	snap []byte
	idx  int32
}

// finding is one invariant failure observed on a state, before it has an
// index to hang a trace on.
type finding struct {
	kind, detail string
}

// succOut is one successor computed during parallel expansion, kept in
// its worker's succs buffer. A clean successor holds no pointer: what
// lies in the worker's buffers it names by offsets, and the rare
// findings sit behind cold (TestSuccOutSize holds it to 48 bytes on
// 64-bit targets).
type succOut struct {
	hash uint64
	cold *succCold
	// edge (see checker.edges) is arena[edgeLo:edgeHi] of the producing
	// worker, filled only where merge can need it — first occurrence of an
	// unseen state, error, data-value violation — and empty otherwise.
	// snap, the successor's snapshot for the next frontier, is
	// slab[snapLo:snapHi], filled only when knownIdx is -1; merge uses it
	// only if the state turns out fresh.
	edgeLo, edgeHi uint32
	snapLo, snapHi uint32
	// key, the canonical key, is keys[keyLo:keyHi] of the producing
	// worker, written with the snapshot in exact mode and empty in
	// fingerprint mode; merge copies it into the visited table if the
	// state turns out fresh.
	keyLo, keyHi uint32
	// knownIdx is the visited index at expansion time, or, for a state
	// unseen then, -1 on the first successor of the level to reach it in
	// this worker and -2-k on every later one, k being the first's index
	// in succs. merge overwrites the -1 with the index Insert resolves,
	// which is where a -2-k reads it.
	knownIdx int32
	quiet    bool
	// seedParent: the collapse fused through a quiescent intermediate on
	// the way to this normal form. The quiescence witness belongs to the
	// PARENT (which really reaches that intermediate), not the normal
	// form, so merge seeds the parent in the liveness analysis.
	seedParent bool
}

// succCold is what a successor that errs or violates carries; nil on
// every clean one.
type succCold struct {
	applyErr  string
	hasErr    bool
	dataViol  []string  // data-value violations observed on performed loads
	stateViol []finding // checkState's findings (knownIdx -1 only)
}

// expansion is everything the merge needs about one frontier item: its
// successors are w.succs[lo:hi] of the worker that expanded it.
type expansion struct {
	w        *worker
	lo, hi   int
	deadlock bool
	inFlight int
	// drain is the index in w.succs of the first clean successor of the
	// state's first delivery rule (see checker.drain); -1 if none.
	drain int
}

// checker carries exploration state.
type checker struct {
	cfg     Config
	p       *ir.Protocol
	res     *Result
	visited *store.Table
	// coherent holds the protocol to SWMR and the data-value invariant:
	// true unless it has acquire fences (see the package comment).
	coherent bool
	// writerAt/readerAt classify the cache machine's stable states by
	// permission, indexed by state index (Ctrl.StIdx) so checkState
	// avoids per-cache map probes.
	writerAt []bool
	readerAt []bool
	// What is kept of stored state i besides its visited-table entry:
	// parent[i], the state it was first reached from, and its edge,
	// edges[edgeEnd[i-1]:edgeEnd[i]] — the ordinal, in the parent's
	// AppendRules order, of the rule applied to it, then under Reduce the
	// ordinal of each rule the collapse fused, each in the rule order of
	// the intermediate state it fired in. No label is kept: trace replays
	// the ordinals from init, the initial state, when a violation needs one.
	init    *engine.System
	parent  []int32
	edgeEnd []uint32
	edges   []uint32
	// What liveness keeps (only when CheckLiveness): quiet[i], state i
	// is quiescent or the collapse into it fused through a quiescent
	// state, and drain[i], the index of the successor state i's first
	// delivery rule reaches (after any collapse), or -1 when it has no
	// delivery rule. merge appends drain in state-index order, since that
	// is the order it expands states in. No successor graph is kept:
	// livenessCheck re-expands the few states the drain walk cannot prove.
	quiet   []bool
	drain   []int32
	perms   [][]int
	workers int
	// pool holds one persistent worker per expansion goroutine: encoders,
	// rule buffers, scratch Systems, snapshot slabs and successor buffers
	// survive across BFS levels, so the steady-state expansion loop
	// allocates only buffer growth.
	pool []*worker
	// exps is expand's result, reused every level; spare is the frontier
	// of two levels back, dead once its level is expanded, whose array
	// merge builds the next frontier in.
	exps  []expansion
	spare []frontierItem
	// red holds the partial-order reducer (reduce.go); nil when
	// Config.Reduce is off or the dependence analysis refused the
	// protocol (Result.ReduceUnsafe).
	red *reducer
}

// Check explores the protocol's state space and returns the result.
// It is CheckCtx without cancellation.
func Check(p *ir.Protocol, cfg Config) *Result {
	return CheckCtx(context.Background(), p, cfg)
}

// CheckCtx explores the protocol's state space under ctx. Cancellation
// is observed at BFS level boundaries — the natural synchronization
// point of the level-parallel exploration — so a canceled check returns
// within one level's worth of work, with the partial counts explored so
// far and Result.Canceled set (verdicts on the explored prefix stand;
// the liveness pass, which needs the complete state space, is skipped).
func CheckCtx(ctx context.Context, p *ir.Protocol, cfg Config) *Result {
	return explore(ctx, p, cfg).res
}

// explore is CheckCtx returning the whole checker, for tests that read its columns.
func explore(ctx context.Context, p *ir.Protocol, cfg Config) *checker {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	visited := store.NewExact()
	if cfg.Fingerprint {
		visited = store.New()
	}
	init := engine.NewSystem(p, engine.Config{Caches: cfg.Caches, Capacity: cfg.Capacity, Values: cfg.Values})
	c := &checker{
		cfg:     cfg,
		p:       p,
		res:     &Result{Protocol: p.Name, Complete: true},
		visited: visited,
		init:    init,
		workers: workers,
	}
	c.classifyPermissions()
	if cfg.Symmetry {
		c.perms = engine.Permutations(cfg.Caches)
	}
	c.pool = make([]*worker, workers)
	for i := range c.pool {
		c.pool[i] = &worker{c: c, enc: engine.NewEncoder(p), par: init.Clone(), work: init.Clone()}
	}
	if cfg.Reduce {
		dep := depend.New(p)
		if dep.Safe() {
			c.red = newReducer(dep, init)
			if cfg.CommuteAudit {
				for _, w := range c.pool {
					w.aud = init.Clone()
				}
			}
		} else {
			c.res.ReduceUnsafe = dep.Unsafe
		}
	}
	key := c.pool[0].enc.Canonical(init, c.perms)
	c.visited.InsertBytes(engine.Fingerprint(key), key, 0)
	c.parent, c.edgeEnd = append(c.parent, -1), append(c.edgeEnd, 0)
	if cfg.CheckLiveness {
		c.quiet = append(c.quiet, quiescent(init))
	}
	for _, f := range c.pool[0].checkState(init) {
		c.violate(f.kind, f.detail, 0, nil)
	}

	frontier := []frontierItem{{snap: init.AppendSnapshot(nil), idx: 0}}
	for len(frontier) > 0 && !c.full() && c.res.Complete {
		if ctx.Err() != nil {
			c.res.Canceled = true
			c.res.Complete = false
			break
		}
		exps := c.expand(frontier)
		if c.red != nil && cfg.CommuteAudit {
			c.drainAudit()
		}
		// Depth is the BFS level counter: every state a level discovers is
		// one step deeper than the frontier that found it.
		stored := len(c.parent)
		if frontier = c.merge(frontier, exps); len(c.parent) > stored {
			c.res.Depth++
		}
		if cfg.Progress != nil {
			pr := Progress{
				States:   len(c.parent),
				Edges:    c.res.Edges,
				Depth:    c.res.Depth,
				Frontier: len(frontier),
			}
			if c.red != nil {
				for _, w := range c.pool {
					pr.Candidates += w.candTotal
					pr.Emitted += w.emitTotal
				}
			}
			cfg.Progress(pr)
		}
	}
	// States comes from the visited table, not the parent column (they
	// agree by construction: one fresh insert per entry).
	c.res.States = c.visited.Len()
	c.res.VisitedBytes = c.visited.Bytes()
	c.res.FalseMerges = c.visited.Collisions()
	var canon engine.CanonStats
	for _, w := range c.pool {
		canon.Add(w.enc.Stats())
	}
	c.res.CanonFast = int64(canon.Fast)
	c.res.CanonTieStates = int64(canon.TieStates)
	c.res.CanonTieEncodes = int64(canon.TieEncodes)
	c.res.CanonFallbacks = int64(canon.Fallbacks)
	if c.red != nil {
		for _, w := range c.pool {
			c.res.ReducedStates += w.redStates
			c.res.CandidateSuccs += w.candTotal
			c.res.EmittedSuccs += w.emitTotal
			c.res.FusedSteps += w.fused
			c.res.CommutePairs += w.auditPairs
			c.res.CommuteMismatches += w.auditMism
		}
	}
	if cfg.CheckLiveness && c.res.Complete && len(c.res.Violations) == 0 {
		c.livenessCheck(c.succsOf)
	}
	return c
}

// expand computes every frontier item's successors. Items are claimed in
// batches from a shared cursor, so fast workers steal the remainder of
// slow workers' share; each worker persists across levels, owning a
// reusable binary encoder, a rule buffer, its scratch Systems and its
// snapshot slab.
func (c *checker) expand(frontier []frontierItem) []expansion {
	// This level's snapshots overwrite the slab half that held the
	// frontier's own parents; the frontier itself sits in the other half,
	// read-only from here to the merge.
	for _, w := range c.pool {
		w.slab, w.prev = w.prev[:0], w.slab
		// The last merge copied out every edge and key it kept.
		w.arena, w.keys = w.arena[:0], w.keys[:0]
		w.resetSuccs()
	}
	if cap(c.exps) < len(frontier) {
		c.exps = make([]expansion, len(frontier))
	}
	out := c.exps[:len(frontier)]
	workers := min(c.workers, len(frontier))
	if workers <= 1 {
		w := c.pool[0]
		for i := range frontier {
			out[i] = w.expandItem(frontier[i])
		}
		return out
	}
	batch := len(frontier)/(workers*4) + 1
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				end := int(cursor.Add(int64(batch)))
				start := end - batch
				if start >= len(frontier) {
					return
				}
				for i := start; i < min(end, len(frontier)); i++ {
					out[i] = w.expandItem(frontier[i])
				}
			}
		}(c.pool[g])
	}
	wg.Wait()
	return out
}

// worker is one expansion goroutine's private state, persistent across
// BFS levels. A worker never holds a state as a System for longer than one
// item: par is the state being expanded, restored from its snapshot once;
// work is what every rule is applied to, canonicalized and probed on, and
// then reverted to par (engine.RevertTo copies back only what the rule
// touched).
type worker struct {
	c     *checker
	enc   *engine.Encoder
	rules []engine.Rule // AppendRules scratch, reused every item
	par   *engine.System
	work  *engine.System
	// slab collects the snapshots of the unseen successors this worker
	// finds in the level being expanded; prev is the slab of the level
	// before, which the frontier being expanded points into and every
	// worker reads. expand swaps the two, so a level overwrites what its
	// grandparent level wrote and no snapshot is ever written while
	// another goroutine can read it.
	slab, prev []byte
	arena      []uint32           // this level's succOut edges, back to back
	keys       []byte             // this level's succOut keys, back to back
	succs      []succOut          // this level's successors, back to back
	hits       []engine.LoadCheck // checkState scratch
	// unseen finds the first occurrence of a state in this level's succs
	// (firstUnseen); snaps counts the snapshots written into the slab,
	// read only by tests.
	unseen levelSet
	snaps  int64

	// Partial-order reduction state (used only when checker.red != nil;
	// see reduce.go). lvls is the collapse recursion's per-depth scratch
	// (separate rule buffers, since w.rules stays live across the item's
	// computeSuccs calls, and a System for the branches that cannot apply
	// in place); chain is the edge being built: the applied rule's ordinal,
	// then each fused rule's (see checker.edges);
	// pendViol carries data-value violations to the next emitted normal
	// form; aud / outIdx / auditRules / auditErrs serve the commutation
	// audit; the counters feed Result and Progress.
	lvls       []fuseLevel
	chain      []uint32
	fuseCnt    []int
	pendViol   []string
	stateFused bool
	aud        *engine.System
	outIdx     []int
	auditRules []engine.Rule
	auditErrs  []auditErr
	candTotal  int64
	emitTotal  int64
	redStates  int64
	fused      int64
	auditPairs int64
	auditMism  int64
}

// expandItem restores one state, enumerates its enabled rules, applies
// each to the scratch copy and canonicalizes the successors. Only reads
// shared checker state; previously visited states resolve here, unseen
// ones are checked, snapshotted and copied out for the merge to
// adjudicate.
func (w *worker) expandItem(it frontierItem) expansion {
	w.par.Restore(it.snap)
	return w.expandPar(it.idx)
}

// expandPar is expandItem on the state already in w.par, index idx.
func (w *worker) expandPar(idx int32) expansion {
	w.rules = w.par.AppendRules(w.rules[:0])
	rules := w.rules
	exp := expansion{w: w, lo: len(w.succs), hi: len(w.succs), drain: -1}
	if len(rules) == 0 && !quiescent(w.par) {
		exp.deadlock, exp.inFlight = true, w.par.Net.InFlight()
		return exp
	}
	w.par.CloneInto(w.work)
	if w.c.red != nil {
		w.candTotal += int64(len(rules))
		w.stateFused = false
	}
	for ri := range rules {
		lo := len(w.succs)
		w.computeSuccs(idx, ri)
		// AppendRules lists accesses first, so the first delivery rule is
		// where the kind changes.
		if rules[ri].Kind == engine.RuleDeliver && (ri == 0 || rules[ri-1].Kind != engine.RuleDeliver) {
			for k := lo; k < len(w.succs) && exp.drain < 0; k++ {
				if cold := w.succs[k].cold; cold == nil || !cold.hasErr {
					exp.drain = k
				}
			}
		}
	}
	exp.hi = len(w.succs)
	if w.c.red != nil {
		w.emitTotal += int64(exp.hi - exp.lo)
		if w.stateFused {
			w.redStates++
		}
	}
	return exp
}

// computeSuccs applies rule ri of state parent to the scratch copy,
// appends the resulting successor(s) to w.succs and reverts the scratch.
// Without reduction that is exactly one normal canonicalized successor;
// with reduction the successor is collapsed to its normal forms first
// (reduce.go), which can branch into several.
func (w *worker) computeSuccs(parent int32, ri int) {
	succ := w.work
	defer succ.RevertTo(w.par)
	w.chain = append(w.chain[:0], uint32(ri))
	performs, err := succ.Apply(w.rules[ri])
	if err != nil {
		w.succErr(err)
		return
	}
	w.pendViol = nil
	for _, pf := range performs {
		if pf.Access == ir.AccessLoad && !pf.Exempt && w.c.coherent && pf.Value != succ.LastWrite {
			w.pendViol = append(w.pendViol,
				fmt.Sprintf("cache %d load returned %d, last write is %d", pf.Node, pf.Value, succ.LastWrite)) // vethotpath:ignore — cold: violation path
		}
	}
	if w.c.red == nil {
		w.succs = append(w.succs, w.finishSucc(succ, false))
		return
	}
	w.collapse(succ, parent, 0, false)
}

// succErr records a successor whose rule failed with err.
func (w *worker) succErr(err error) {
	so := succOut{knownIdx: -1, cold: &succCold{hasErr: true, applyErr: err.Error()}}
	so.edgeLo, so.edgeHi = w.edge()
	w.succs = append(w.succs, so)
}

// edge copies the chain — the applied rule's ordinal and the fused tail —
// into the level arena and returns its bounds there.
func (w *worker) edge() (lo, hi uint32) {
	lo = uint32(len(w.arena))
	w.arena = append(w.arena, w.chain...)
	return lo, uint32(len(w.arena))
}

// levelSet is a worker's open-addressed table of the states it found
// unseen in the level being expanded. A slot holds the w.succs index of
// a state's first occurrence plus one, so zero is a free slot; probing
// is linear from the low bits of the hash, at most half full.
type levelSet struct {
	slots []int32
	n     int
}

// resetSuccs empties the successor buffer and, with it, the table of
// first occurrences that indexes it.
func (w *worker) resetSuccs() {
	w.succs = w.succs[:0]
	if w.unseen.n > 0 {
		clear(w.unseen.slots)
		w.unseen.n = 0
	}
}

// firstUnseen returns the w.succs index of the level's first successor
// in this worker that reached the unseen state (hash, key), or -1 after
// recording the successor about to be appended as that first one. It
// matches as the visited table does: on the hash alone in fingerprint
// mode, on the hash and the key in exact mode.
func (w *worker) firstUnseen(hash uint64, key []byte) int32 {
	t := &w.unseen
	if 2*(t.n+1) > len(t.slots) {
		w.growUnseen()
	}
	mask := uint64(len(t.slots) - 1)
	i := hash & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if so := &w.succs[t.slots[i]-1]; so.hash == hash && (w.c.cfg.Fingerprint || string(w.keys[so.keyLo:so.keyHi]) == string(key)) {
			return t.slots[i] - 1
		}
	}
	t.slots[i] = int32(len(w.succs)) + 1
	t.n++
	return -1
}

// growUnseen doubles the table of first occurrences and rehashes it.
func (w *worker) growUnseen() {
	old := w.unseen.slots
	slots := make([]int32, max(256, 2*len(old)))
	mask := uint64(len(slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := w.succs[s-1].hash & mask
		for ; slots[i] != 0; i = (i + 1) & mask {
		}
		slots[i] = s
	}
	w.unseen.slots = slots
}

// merge folds a level's expansions into the exploration in frontier
// order — the single writer of the visited set, state columns, edge lists
// and violations. Because items and successors are consumed in the same
// order the sequential FIFO BFS would produce, indices, counts and edges
// come out identical regardless of how many workers expanded the level.
func (c *checker) merge(frontier []frontierItem, exps []expansion) []frontierItem {
	next := c.spare[:0]
	c.spare = frontier
	for i := range exps {
		if c.full() {
			return nil
		}
		exp := &exps[i]
		parent := frontier[i].idx
		if exp.deadlock {
			c.violate("deadlock",
				fmt.Sprintf("no enabled rules with %d messages in flight", exp.inFlight), int(parent), nil) // vethotpath:ignore — cold: violation path
			if c.cfg.CheckLiveness {
				c.drain = append(c.drain, -1)
			}
			continue
		}
		w := exp.w
		drain := int32(-1)
		for k := exp.lo; k < exp.hi; k++ {
			// The cap stops the run at the violation that reaches it,
			// not at the end of the item that found it.
			if c.full() {
				return nil
			}
			so := &w.succs[k]
			edge := w.arena[so.edgeLo:so.edgeHi]
			cold := so.cold
			if cold != nil && cold.hasErr {
				c.violate("error", cold.applyErr, int(parent), edge)
				continue
			}
			c.res.Edges++
			if cold != nil {
				for _, d := range cold.dataViol {
					c.violate("data-value", d, int(parent), edge)
				}
			}
			if so.seedParent && c.cfg.CheckLiveness {
				c.quiet[parent] = true
			}
			ni, fresh := so.knownIdx, false
			switch {
			case ni == -1:
				// Unseen at expansion time, but a successor of this level
				// that another worker found, earlier in frontier order,
				// may have claimed the state since: the one probe either
				// finds that claim or stakes this one. The index goes back
				// into the buffer for this worker's repeats of the state.
				ni, fresh = c.visited.InsertBytes(so.hash, w.keys[so.keyLo:so.keyHi], int32(len(c.parent)))
				so.knownIdx = ni
			case ni < -1:
				// A repeat: this worker expands items in frontier order,
				// so the first occurrence has been merged already.
				ni = w.succs[-2-ni].knownIdx
			}
			if k == exp.drain {
				drain = ni
			}
			if !fresh {
				continue
			}
			c.edges = append(c.edges, edge...)
			c.parent, c.edgeEnd = append(c.parent, parent), append(c.edgeEnd, uint32(len(c.edges)))
			if c.cfg.CheckLiveness {
				c.quiet = append(c.quiet, so.quiet)
			}
			if cold != nil {
				for _, f := range cold.stateViol {
					c.violate(f.kind, f.detail, int(ni), nil)
				}
			}
			if len(c.parent) >= c.cfg.MaxStates {
				c.res.Complete = false
				return nil
			}
			next = append(next, frontierItem{snap: w.slab[so.snapLo:so.snapHi:so.snapHi], idx: ni})
		}
		// Parents come in state-index order: the frontier is built in
		// discovery order and every state is expanded exactly once.
		if c.cfg.CheckLiveness {
			c.drain = append(c.drain, drain)
		}
	}
	return next
}

// classifyPermissions decides whether the protocol is held to SWMR and
// the data-value invariant (checker.coherent) and derives reader/writer
// stable states from the FSM, into tables indexed by the cache machine's
// state index.
func (c *checker) classifyPermissions() {
	c.coherent = !c.p.Acquires()
	order := c.p.Cache.Order
	c.writerAt = make([]bool, len(order))
	c.readerAt = make([]bool, len(order))
	for i, n := range order {
		if st := c.p.Cache.State(n); st == nil || st.Kind != ir.Stable { //vethotpath:ignore — cold: runs once per Check, before the first state
			continue
		}
		for _, t := range c.p.Cache.Find(n, ir.AccessEvent(ir.AccessLoad)) { //vethotpath:ignore — cold: once per Check
			for _, a := range t.Actions {
				if a.Op == ir.AHit {
					c.readerAt[i] = true
				}
			}
		}
		for _, t := range c.p.Cache.Find(n, ir.AccessEvent(ir.AccessStore)) { //vethotpath:ignore — cold: once per Check
			for _, a := range t.Actions {
				if a.Op == ir.AHit {
					c.writerAt[i] = true
				}
			}
		}
	}
}

// checkState evaluates the per-state invariants on s and returns what it
// found — nil on a sound state, and always nil when the protocol is not
// held to them (checker.coherent). It runs on the worker that produced s;
// merge turns the findings into violations if s proves fresh, in this
// order.
func (w *worker) checkState(s *engine.System) []finding {
	c := w.c
	if !c.coherent {
		return nil
	}
	var out []finding
	writers, readers := 0, 0
	for _, cc := range s.Caches {
		if cc.StIdx < 0 {
			continue
		}
		if c.writerAt[cc.StIdx] {
			writers++
		} else if c.readerAt[cc.StIdx] {
			readers++
		}
	}
	if writers > 1 || (writers == 1 && readers > 0) {
		out = append(out, finding{"SWMR", fmt.Sprintf("%d writers, %d readers", writers, readers)}) // vethotpath:ignore — cold: violation path
	}
	for i, cc := range s.Caches {
		if cc.StIdx >= 0 && (c.writerAt[cc.StIdx] || c.readerAt[cc.StIdx]) && cc.Data() != s.LastWrite {
			out = append(out, finding{"data-value",
				fmt.Sprintf("cache %d in %s holds %d, last write is %d", i, cc.State, cc.Data(), s.LastWrite)}) // vethotpath:ignore — cold: violation path
		}
	}
	w.hits = s.AppendHitLoads(w.hits[:0])
	for _, h := range w.hits {
		if h.Value != s.LastWrite {
			out = append(out, finding{"data-value",
				fmt.Sprintf("cache %d transient load hit in %s reads %d, last write is %d", h.Cache, h.State, h.Value, s.LastWrite)}) // vethotpath:ignore — cold: violation path
		}
	}
	return out
}

// Liveness classes of a state (livenessCheck).
const (
	liveUnseen  uint8 = iota
	liveWalking       // on the drain walk in progress
	liveGood          // quiescence is reachable
	liveOpen          // the drain walk could not tell
	liveStuck         // quiescence is unreachable
)

// livenessCheck verifies that quiescence is reachable from every state
// (AG EF quiescent); a state it is not reachable from is a stuck
// transaction (livelock or partial deadlock). succs appends a state's
// successor indices to out: the checker passes succsOf, a test a
// hand-built graph.
//
// The drain walk comes first: a state is good if it is quiescent or its
// drain successor is good, which one pass along the drain pointers
// settles; a pointer cycle or a state without a delivery rule leaves the
// states behind it open. On a correct protocol nothing is left open, so
// a passing run expands no state here. The open states are then settled
// exactly: each is expanded once, and goodness flows backwards from the
// good states over the edges among them; an open state it does not
// reach is stuck.
func (c *checker) livenessCheck(succs func(s int32, out []int32) []int32) {
	n := len(c.parent)
	class := make([]uint8, n)
	for i, q := range c.quiet {
		if q {
			class[i] = liveGood
			c.res.Quiescent++
		}
	}
	var walk []int32
	for i := range class {
		v := int32(i)
		for class[v] == liveUnseen {
			class[v] = liveWalking
			walk = append(walk, v)
			if c.drain[v] < 0 {
				break
			}
			v = c.drain[v]
		}
		fate := liveOpen // a cycle (v is on this walk) or no delivery rule
		if class[v] == liveGood {
			fate = liveGood
		}
		for _, u := range walk {
			class[u] = fate
		}
		walk = walk[:0]
	}
	settleOpen(class, succs)
	stuck, first := 0, -1
	for i := range class {
		if class[i] == liveStuck {
			stuck++
			if first < 0 {
				first = i
			}
		}
	}
	if stuck > 0 {
		c.violate("stuck",
			fmt.Sprintf("quiescence unreachable from %d of %d states (stuck transaction)", stuck, n), first, nil) // vethotpath:ignore — cold: violation path
	}
}

// settleOpen classifies every open state good or stuck. The open states
// are numbered in index order: open[j] is the j-th, pos maps it back,
// and its successors are dst[off[j]:off[j+1]].
func settleOpen(class []uint8, succs func(int32, []int32) []int32) {
	var open []int32
	for i := range class {
		if class[i] == liveOpen {
			open = append(open, int32(i))
		}
	}
	if len(open) == 0 {
		return
	}
	pos := make([]int32, len(class))
	off, dst := make([]int32, 1, len(open)+1), []int32(nil)
	for j, u := range open {
		pos[u] = int32(j)
		dst = succs(u, dst)
		off = append(off, int32(len(dst)))
	}
	// The edges among open states reversed: the positions with an edge
	// into position k are back[backOff[k]:backOff[k+1]].
	m := len(open)
	backOff := make([]int32, m+1)
	for _, v := range dst {
		if class[v] == liveOpen {
			backOff[pos[v]+1]++
		}
	}
	for k := range m {
		backOff[k+1] += backOff[k]
	}
	back, at := make([]int32, backOff[m]), append([]int32(nil), backOff[:m]...)
	for j := range m {
		for _, v := range dst[off[j]:off[j+1]] {
			if class[v] == liveOpen {
				back[at[pos[v]]] = int32(j)
				at[pos[v]]++
			}
		}
	}
	var good []int32 // positions turned good whose predecessors are still to visit
	for j, u := range open {
		for _, v := range dst[off[j]:off[j+1]] {
			if class[v] == liveGood && class[u] == liveOpen {
				class[u] = liveGood
				good = append(good, int32(j))
			}
		}
	}
	for len(good) > 0 {
		k := good[len(good)-1]
		good = good[:len(good)-1]
		for _, j := range back[backOff[k]:backOff[k+1]] {
			if class[open[j]] == liveOpen {
				class[open[j]] = liveGood
				good = append(good, j)
			}
		}
	}
	for _, u := range open {
		if class[u] == liveOpen {
			class[u] = liveStuck
		}
	}
}

// succsOf appends the visited indices of state idx's successors to out,
// as the exploration found them: the state is replayed in the frame it
// was discovered in, the way trace replays it but naming no rule, and
// the worker expands it the way it expanded it then, reduction and
// symmetry included. The run is complete, so every successor is in the
// visited table already.
func (c *checker) succsOf(idx int32, out []int32) []int32 {
	w := c.pool[0]
	var path []int32
	for i := idx; i > 0; i = c.parent[i] {
		path = append(path, i)
	}
	c.init.CloneInto(w.par)
	for k := len(path) - 1; k >= 0; k-- {
		for _, ord := range c.edges[c.edgeEnd[path[k]-1]:c.edgeEnd[path[k]]] {
			w.rules = w.par.AppendRules(w.rules[:0])
			_, _ = w.par.Apply(w.rules[ord]) // every rule on a stored state's path applied cleanly
		}
	}
	w.arena, w.keys, w.slab = w.arena[:0], w.keys[:0], w.slab[:0]
	w.resetSuccs()
	exp := w.expandPar(idx)
	for _, so := range w.succs[exp.lo:exp.hi] {
		if so.knownIdx < 0 {
			panic(fmt.Sprintf("verify: liveness: a successor of state %d is not in the visited table", idx)) // vethotpath:ignore — cold: broken invariant
		}
		out = append(out, so.knownIdx)
	}
	return out
}

// quiescent: nothing in flight, everything stable, no deferred work.
func quiescent(s *engine.System) bool {
	if s.Net.InFlight() > 0 {
		return false
	}
	for _, cc := range s.Caches {
		if cc.StIdx < 0 || !cc.L.StableAt[cc.StIdx] || len(cc.DeferQ) > 0 {
			return false
		}
	}
	d := s.Dir
	return d.StIdx >= 0 && d.L.StableAt[d.StIdx] && len(d.DeferQ) == 0
}

// full reports whether the run holds Config.MaxViolations violations
// (at least one): exploration stops there, and violate records no more.
func (c *checker) full() bool {
	return len(c.res.Violations) >= max(1, c.cfg.MaxViolations)
}

// violate records a violation on state idx or, when edge is non-empty,
// on that edge out of it: the witness is the replayed path to idx plus
// the edge's own label. A run that is full drops it.
func (c *checker) violate(kind, detail string, idx int, edge []uint32) {
	if c.full() {
		return
	}
	tr, sys := c.trace(idx)
	if len(edge) > 0 {
		tr = append(tr, replay(sys, edge))
	}
	c.res.Violations = append(c.res.Violations, Violation{Kind: kind, Detail: detail, Trace: tr})
}

// trace rebuilds the witness of state idx: it walks parent back to the
// initial state, then replays each edge forward on a copy of init.
// The frontier held every state in the frame it was discovered in, so
// the ordinals select the very rules that were applied. It returns one
// label per edge and the System the path ends in.
func (c *checker) trace(idx int) ([]string, *engine.System) {
	var path []int
	for i := idx; i > 0; i = int(c.parent[i]) {
		path = append(path, i)
	}
	sys, out := c.init.Clone(), make([]string, 0, len(path)+1)
	for k := len(path) - 1; k >= 0; k-- {
		i := path[k]
		out = append(out, replay(sys, c.edges[c.edgeEnd[i-1]:c.edgeEnd[i]]))
	}
	return out, sys
}

// replay fires edge's rules on sys, each picked by its ordinal among the
// rules enabled when its turn comes, and returns the edge's label.
func replay(sys *engine.System, edge []uint32) string {
	labels := make([]string, len(edge))
	for i, ord := range edge {
		r := sys.Rules()[ord]
		labels[i] = r.String()
		_, _ = sys.Apply(r) // only the rule an "error" edge ends in fails, and nothing reads sys after it
	}
	return strings.Join(labels, " ; ")
}
