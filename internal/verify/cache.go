package verify

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/linelog"
)

// cacheFile is the JSONL file a ResultCache persists under its
// directory. See docs/CACHING.md for the format and invalidation rules.
const cacheFile = "verify-cache.jsonl"

// cacheKeyVersion salts every cache key; bump it when the Result
// schema or key composition changes so stale entries can never be
// mistaken for current ones. v2: Result grew the canonicalization
// strategy counters (CanonFast/CanonTieStates/CanonTieEncodes/
// CanonFallbacks) — v1 entries would serve zeros for counts the
// exploration did measure. v3: Config grew Reduce (in the key) and
// Result grew the reduction counters. v4: the Config part of the key is
// derived from the struct rather than a hand-kept field list, and an
// exact-mode Result's FalseMerges became a measurement (v3 entries all
// stored 0). v5: Config lost its SWMR and data-value switches, which
// the protocol now decides (ir.Protocol.Acquires) — a v4 TSO_CC entry
// at default flags holds a FAIL the derived contract does not reproduce.
// v6: the canonical key writes only the ordered network's messages in
// flight, no per-queue lengths, so an exact run's VisitedBytes reads
// about 32 % less (31.5 →
// 21.5 MB on 3-cache stalling MSI at one value); a v5 entry serves the
// old figure. v7: the exact table keeps its keys in one byte arena, not
// a string each, so VisitedBytes reads about 13 % less (21.5 → 18.7 MB
// on the same run), and a failing run stops at MaxViolations where a v6
// entry could hold a few more.
const cacheKeyVersion = "v7"

// CacheKey derives the result-cache key for one verification:
// SHA-256 over the canonical spec text (dsl.Format output, so
// formatting-identical specs share an entry), the generation options
// (core.Options.KeyString), and the checker configuration. Each part is
// length-prefixed, so no concatenation of differing parts can collide.
//
// Every Config field is in the key unless keyString names it as an
// observer. Config.Fingerprint IS part of the key — exact and
// fingerprint explorations agree in practice but not in principle (a
// fingerprint collision merges states), and a cache must never launder
// one mode's result into the other's. Config.Reduce is in the key for
// the same reason: verdicts match full exploration but
// States/Edges/Depth do not.
//
// The root Engine also hashes a job's raw, unparsed source text with it,
// as the key of an in-memory index onto these keys; such a hash is never
// the key of an entry.
func CacheKey(canonicalSpec, genOptions string, cfg Config) string {
	h := sha256.New()
	for _, part := range []string{cacheKeyVersion, canonicalSpec, genOptions, cfg.keyString()} {
		fmt.Fprintf(h, "%d\x00%s", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SpecKey is CacheKey for a parsed spec, whose canonical text is
// dsl.Format's.
func SpecKey(spec *ir.Spec, genOptions string, cfg Config) string {
	return CacheKey(dsl.Format(spec), genOptions, cfg)
}

// keyString renders the result-affecting part of cfg: the whole struct,
// so a field added to Config is in the key by default, minus the three
// observers that provably cannot change a Result. Parallelism never
// changes States, Edges, Depth, verdicts or traces (pinned by the
// parallel equivalence tests), so runs at any worker count share
// entries. CommuteAudit only adds por-audit violations on failure, and
// audited runs bypass the cache entirely at the engine layer, both read
// and write, so the audit always actually executes. Progress is a
// callback the exploration reports to and never reads from.
func (cfg Config) keyString() string {
	cfg.Parallelism, cfg.CommuteAudit, cfg.Progress = 0, false, nil
	return fmt.Sprintf("%+v", cfg)
}

// cacheEntry is one persisted line of the JSONL cache file.
type cacheEntry struct {
	Key    string  `json:"key"`
	Result *Result `json:"result"`
}

// ResultCache memoizes verification Results across runs, keyed by
// CacheKey and persisted as one JSON line per entry in a line log
// (internal/linelog) under a cache directory; later duplicate keys win,
// so a rewritten entry supersedes its predecessor. It is safe for
// concurrent use within a process; the append-only file format makes
// concurrent processes at worst rewrite an identical entry.
// Structurally identical specs (same canonical text, options and
// config) are verified once per configuration — a rerun of a fuzz
// campaign over the same seed range performs zero re-verifications.
type ResultCache struct {
	path string
	log  *linelog.Log
	scan linelog.Scan // OpenResultCache's read, fixed once it returns

	mu     sync.Mutex
	m      map[string]*Result //protogen:guardedby mu
	hits   int                //protogen:guardedby mu
	misses int                //protogen:guardedby mu
}

// OpenResultCache opens (creating if needed) the cache persisted under
// dir. What a killed run left is never fatal: its unterminated last
// line is dropped and cut off the file, and any other line that is not
// an entry is skipped and reported by Damage. A file that cannot be
// opened for append (a read-only directory, say) still serves its
// entries; every Put then reports the failure.
func OpenResultCache(dir string) (*ResultCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("result cache: %w", err)
	}
	c := &ResultCache{
		path: filepath.Join(dir, cacheFile),
		m:    make(map[string]*Result),
	}
	var err error
	c.scan, err = linelog.Read(c.path, func(line []byte) bool {
		var e cacheEntry
		if json.Unmarshal(line, &e) != nil || e.Key == "" || e.Result == nil {
			return false
		}
		c.m[e.Key] = e.Result
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("result cache: %w", err)
	}
	c.log = linelog.Open(c.path, c.scan, false)
	return c, nil
}

// Damage reports what OpenResultCache could not read: the number of
// complete lines that were not an entry (each one a verification the
// next run repeats) and the byte offset of the first. A torn final line
// is not damage.
func (c *ResultCache) Damage() (lines int, firstOffset int64) {
	return c.scan.Damaged, c.scan.DamageOff
}

// Get returns a copy of the cached Result for key, counting a hit. A
// miss is not counted here: a caller may look ahead of the CheckCtx that
// answers the same job, and CheckCtx counts the miss once.
func (c *ResultCache) Get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.hits++
	return cloneResult(r), true
}

// CheckCtx is the one cache-or-check sequence every memoizing caller
// runs: serve key's entry when one exists (marked Result.Cached; the
// hit skips generation too — the key needs only the spec text and
// options), otherwise count a miss, generate, CheckCtx, and Put the
// result under key. A nil c generates and checks with no memoization.
//
// Policy stays with the caller: which runs may use a cache at all, and
// what a failed Put means — writeErr reports it with the verdict in res
// intact, because a write failure only loses memoization. err is
// generate's error.
func (c *ResultCache) CheckCtx(ctx context.Context, key string, cfg Config, generate func() (*ir.Protocol, error)) (res *Result, writeErr, err error) {
	if c != nil {
		if hit, ok := c.Get(key); ok {
			hit.Cached = true
			return hit, nil, nil
		}
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
	}
	p, err := generate()
	if err != nil {
		return nil, nil, err
	}
	res = CheckCtx(ctx, p, cfg)
	if c != nil {
		writeErr = c.Put(key, res) // Put itself refuses canceled partial results
	}
	return res, writeErr, nil
}

// Put records key's Result in memory and appends it to the cache file.
// A failed append is sticky (see linelog.Log): the entry still memoizes
// for this process, and this and every later Put return the failure.
// Canceled (partial) results are silently dropped: where a run was
// interrupted is nondeterministic, so memoizing it would serve an
// arbitrary prefix as if it were the configured exploration.
func (c *ResultCache) Put(key string, r *Result) error {
	if r.Canceled {
		return nil
	}
	stored := cloneResult(r)
	stored.Cached = false // Cached describes how a copy was served, not the result
	line, err := json.Marshal(cacheEntry{Key: key, Result: stored})
	if err != nil {
		return fmt.Errorf("result cache: %w", err)
	}
	c.mu.Lock()
	c.m[key] = stored
	c.mu.Unlock()
	if err := c.log.Append(line); err != nil {
		return fmt.Errorf("result cache: %w", err)
	}
	return nil
}

// Close closes the cache file. Gets keep being served from memory; a
// later Put memoizes for this process only and reports the closed file.
func (c *ResultCache) Close() error { return c.log.Close() }

// Dir reports the directory the cache persists under.
func (c *ResultCache) Dir() string { return filepath.Dir(c.path) }

// Len reports the number of distinct cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats reports this process's hits (Gets that found an entry) and
// misses (CheckCtx calls that found none and checked), so each job a
// cache answers or runs counts once.
func (c *ResultCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// cloneResult deep-copies a Result so cache readers and writers can
// never alias each other's violation slices.
func cloneResult(r *Result) *Result {
	out := *r
	out.Violations = make([]Violation, len(r.Violations))
	for i, v := range r.Violations {
		v.Trace = append([]string(nil), v.Trace...)
		out.Violations[i] = v
	}
	return &out
}
