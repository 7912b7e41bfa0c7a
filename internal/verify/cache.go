package verify

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"protogen/internal/ir"
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
// stored 0).
const cacheKeyVersion = "v4"

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
func CacheKey(canonicalSpec, genOptions string, cfg Config) string {
	h := sha256.New()
	for _, part := range []string{cacheKeyVersion, canonicalSpec, genOptions, cfg.keyString()} {
		fmt.Fprintf(h, "%d\x00%s", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil))
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
// CacheKey and persisted as one JSON line per entry under a cache
// directory. It is safe for concurrent use within a process; the
// append-only file format makes concurrent processes at worst rewrite
// an identical entry. Structurally identical specs (same canonical
// text, options and config) are verified once per configuration — a
// rerun of a fuzz campaign over the same seed range performs zero
// re-verifications.
type ResultCache struct {
	path string

	mu sync.Mutex
	m  map[string]*Result //protogen:guardedby mu
	// f is the lazily opened O_APPEND handle, reused across Puts.
	f      *os.File //protogen:guardedby mu
	hits   int      //protogen:guardedby mu
	misses int      //protogen:guardedby mu
}

// OpenResultCache opens (creating if needed) the cache persisted under
// dir. Malformed lines — a truncated tail from a killed run, say — are
// skipped, not fatal; later duplicate keys win, so a rewritten entry
// supersedes its predecessor.
func OpenResultCache(dir string) (*ResultCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("result cache: %w", err)
	}
	c := &ResultCache{
		path: filepath.Join(dir, cacheFile),
		m:    make(map[string]*Result),
	}
	f, err := os.Open(c.path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("result cache: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // violation traces can run long
	for sc.Scan() {
		var e cacheEntry
		if json.Unmarshal(sc.Bytes(), &e) != nil || e.Key == "" || e.Result == nil {
			continue
		}
		c.m[e.Key] = e.Result
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// An oversized entry is corruption like any other: keep
			// what loaded cleanly instead of bricking the directory.
			return c, nil
		}
		return nil, fmt.Errorf("result cache %s: %w", c.path, err)
	}
	return c, nil
}

// Get returns a copy of the cached Result for key, counting the probe
// as a hit or miss.
func (c *ResultCache) Get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return cloneResult(r), true
}

// CheckCtx is the one cache-or-check sequence every memoizing caller
// runs: serve key's entry when one exists (marked Result.Cached; the
// hit skips generation too — the key needs only the spec text and
// options), otherwise generate, CheckCtx, and Put the result under key.
// A nil c generates and checks with no memoization.
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
// The append handle is opened on first use and reused — campaign workers
// serialize only on the write itself, not on per-entry open/close.
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
	defer c.mu.Unlock()
	c.m[key] = stored
	if c.f == nil {
		// The open and the append below happen under c.mu by design:
		// the mutex is what serializes concurrent Puts onto one handle,
		// and each write is a single buffered line, not a stall point.
		f, err := os.OpenFile(c.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644) //vetconcurrency:ignore designed-in: c.mu serializes the appends onto the shared handle
		if err != nil {
			return fmt.Errorf("result cache: %w", err)
		}
		c.f = f
	}
	if _, err := c.f.Write(append(line, '\n')); err != nil { //vetconcurrency:ignore designed-in: c.mu serializes the appends onto the shared handle
		return fmt.Errorf("result cache %s: %w", c.path, err)
	}
	return nil
}

// Close releases the append handle (if any Put opened it). The cache
// remains usable for Gets; a later Put reopens the file. Optional for
// short-lived processes — the OS reclaims the unbuffered handle — but
// long-running library users should defer it.
func (c *ResultCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close() //vetconcurrency:ignore designed-in: closing the guarded handle must itself hold c.mu
	c.f = nil
	return err
}

// Dir reports the directory the cache persists under.
func (c *ResultCache) Dir() string { return filepath.Dir(c.path) }

// Len reports the number of distinct cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats reports this process's hit and miss counts.
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
