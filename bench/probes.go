package main

import (
	"fmt"
	"math/rand"
	"time"

	"protogen/internal/engine"
	"protogen/internal/ir"
	"protogen/internal/store"
)

// engineProbe times the engine calls the checker makes per state, along a
// seeded random walk from the initial state. The walk is taken a chunk at
// a time and untimed; each call is then timed in a loop of its own over
// the chunk's states, so that one clock reading pair covers thousands of
// calls.
func engineProbe(p *ir.Protocol, cfg engine.Config, steps int, seed int64) (map[string]float64, error) {
	const chunk = 4096
	rng := rand.New(rand.NewSource(seed))
	enc := engine.NewEncoder(p)
	perms := engine.Permutations(cfg.Caches)
	cur := engine.NewSystem(p, cfg)
	pre := make([]*engine.System, chunk)  // the walk's states
	post := make([]*engine.System, chunk) // their clones, stepped
	taken := make([]engine.Rule, chunk)
	keys := make([][]byte, chunk)
	var rules []engine.Rule
	var tRules, tClone, tApply, tCanon, tFP time.Duration
	var nRules int
	var sink uint64

	for done := 0; done < steps; {
		n := min(chunk, steps-done)
		for i := 0; i < n; i++ {
			rules = cur.AppendRules(rules[:0])
			if len(rules) == 0 {
				return nil, fmt.Errorf("engine probe: walk reached a state with no enabled rule")
			}
			pre[i] = cur.CloneInto(pre[i])
			taken[i] = rules[rng.Intn(len(rules))]
			if _, err := cur.Apply(taken[i]); err != nil {
				return nil, fmt.Errorf("engine probe: %s: %w", taken[i], err)
			}
		}

		t0 := time.Now()
		for i := 0; i < n; i++ {
			rules = pre[i].AppendRules(rules[:0])
			nRules += len(rules)
		}
		tRules += time.Since(t0)

		t0 = time.Now()
		for i := 0; i < n; i++ {
			post[i] = pre[i].CloneInto(post[i])
		}
		tClone += time.Since(t0)

		t0 = time.Now()
		for i := 0; i < n; i++ {
			// The walk already applied this rule to this state without error.
			_, _ = post[i].Apply(taken[i])
		}
		tApply += time.Since(t0)

		t0 = time.Now()
		for i := 0; i < n; i++ {
			sink += uint64(len(enc.Canonical(post[i], perms)))
		}
		tCanon += time.Since(t0)

		for i := 0; i < n; i++ {
			keys[i] = append(keys[i][:0], enc.Canonical(post[i], perms)...)
		}
		t0 = time.Now()
		for i := 0; i < n; i++ {
			sink += engine.Fingerprint(keys[i])
		}
		tFP += time.Since(t0)
		done += n
	}
	if sink == 0 {
		return nil, fmt.Errorf("engine probe: empty encodings")
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(steps) }
	return map[string]float64{
		"engine.rules_ns":        per(tRules),
		"engine.clone_ns":        per(tClone),
		"engine.apply_ns":        per(tApply),
		"engine.canonical_ns":    per(tCanon),
		"engine.fingerprint_ns":  per(tFP),
		"engine.rules_per_state": float64(nRules) / float64(steps),
	}, nil
}

// storeProbe times the fingerprint table on n seeded fingerprints: insert
// all, look all up, look up n that were never inserted.
func storeProbe(n int, seed int64) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	present := make([]uint64, n)
	absent := make([]uint64, n)
	seen := make(map[uint64]bool, 2*n)
	draw := func() uint64 {
		for {
			if fp := rng.Uint64(); !seen[fp] {
				seen[fp] = true
				return fp
			}
		}
	}
	for i := range present {
		present[i], absent[i] = draw(), draw()
	}

	t := store.New()
	t0 := time.Now()
	for i, fp := range present {
		t.Insert(fp, "", int32(i))
	}
	insert := time.Since(t0)

	hits := 0
	t0 = time.Now()
	for _, fp := range present {
		if _, ok := t.Lookup(fp, nil); ok {
			hits++
		}
	}
	hit := time.Since(t0)

	false_ := 0
	t0 = time.Now()
	for _, fp := range absent {
		if _, ok := t.Lookup(fp, nil); ok {
			false_++
		}
	}
	miss := time.Since(t0)

	if hits != n || false_ != 0 || t.Len() != n {
		return nil, fmt.Errorf("store probe: %d of %d inserted found, %d absent found, Len %d", hits, n, false_, t.Len())
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }
	return map[string]float64{
		"store.insert_ns":      per(insert),
		"store.lookup_hit_ns":  per(hit),
		"store.lookup_miss_ns": per(miss),
		"store.bytes_per_key":  float64(t.Bytes()) / float64(n),
	}, nil
}
