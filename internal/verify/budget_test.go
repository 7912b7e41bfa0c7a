package verify

import (
	"runtime"
	"testing"
)

// budgetStates caps the 3-cache MSI rows: large enough that the
// fingerprint table's fixed minimum footprint is amortized away, small
// enough for tier 1 (the full 3-cache space runs to millions of states).
const budgetStates = 50_000

// perStateBudget lists the explorations whose per-state cost is held to
// a ceiling, with the readings the ceilings derive from. Both columns
// are counts, not timings: at Parallelism 1 they repeat to three
// decimals run after run, so the ceiling is the recorded reading + 10 %
// and a trip is a structural change (a per-successor allocation, a wider
// table slot), never runner jitter. After an intentional change,
// re-record the reading and say why. (Allocs last re-recorded, downward,
// when exec stopped copying perform's one-element slice; the bytes column
// also moves by a percent with the key hash — shards double one by one —
// and was left where it was.)
var perStateBudget = []struct {
	name, mode string
	cfg        func() Config
	states     int
	allocs     float64 // heap allocations per explored state
	bytes      float64 // retained visited-set bytes per state
}{
	{"3-cache/exact", "nonstalling", func() Config { return budget3Cache(false) }, budgetStates, 6.122, 145.7},
	{"3-cache/fingerprint", "nonstalling", func() Config { return budget3Cache(true) }, budgetStates, 3.804, 26.5},
	// TestFourCacheGolden's capped run: the cache count the
	// factorial-free canonicalization unlocks.
	{"4-cache/fingerprint", "nonstalling", func() Config {
		cfg := QuickConfig()
		cfg.Caches = 4
		cfg.MaxStates = 40_000
		cfg.Fingerprint = true
		return cfg
	}, 40_000, 6.318, 19.7},
	// The registry's most fusible design under partial-order reduction
	// (4929 states, TestReducedGoldenCounts).
	{"2-cache/reduced", "stalling", func() Config {
		cfg := QuickConfig()
		cfg.Reduce = true
		return cfg
	}, 4929, 5.580, 100.9},
}

func budget3Cache(fingerprint bool) Config {
	cfg := DefaultConfig()
	cfg.MaxStates = budgetStates
	cfg.CheckLiveness = false // the edge graph is identical in both modes
	cfg.Fingerprint = fingerprint
	return cfg
}

// TestFingerprintBytesReduction is the checker's per-state budget: every
// row of perStateBudget stays under its allocs/state and bytes/state
// ceilings, and fingerprint mode keeps its headline memory claim — the
// table without its key column retains at least 5x fewer bytes per state
// than with it, while exploring the identical state space.
func TestFingerprintBytesReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("3- and 4-cache explorations in -short mode")
	}
	results := map[string]*Result{}
	for _, row := range perStateBudget {
		p := goldenProtocol(t, "MSI", row.mode)
		cfg := row.cfg()
		cfg.Parallelism = 1
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := Check(p, cfg)
		runtime.ReadMemStats(&m1)
		if !res.OK() || res.States != row.states {
			t.Fatalf("%s: want %d states PASS, got %v", row.name, row.states, res)
		}
		results[row.name] = res
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(res.States)
		bytes := float64(res.VisitedBytes) / float64(res.States)
		t.Logf("%s: %.3f allocs/state, %.1f visited bytes/state", row.name, allocs, bytes)
		if allocs > 1.10*row.allocs {
			t.Errorf("%s: %.3f allocs/state, over the recorded %.3f + 10%%", row.name, allocs, row.allocs)
		}
		if bytes > 1.10*row.bytes {
			t.Errorf("%s: %.1f visited bytes/state, over the recorded %.1f + 10%%", row.name, bytes, row.bytes)
		}
	}
	exact, fp := results["3-cache/exact"], results["3-cache/fingerprint"]
	if exact.Edges != fp.Edges || exact.Depth != fp.Depth {
		t.Fatalf("modes diverged: exact %d/%d/%d, fingerprint %d/%d/%d",
			exact.States, exact.Edges, exact.Depth, fp.States, fp.Edges, fp.Depth)
	}
	if ratio := float64(exact.VisitedBytes) / float64(fp.VisitedBytes); ratio < 5 {
		t.Errorf("visited-set reduction %.1fx, want ≥5x (exact %d B, fingerprint %d B)",
			ratio, exact.VisitedBytes, fp.VisitedBytes)
	}
}
