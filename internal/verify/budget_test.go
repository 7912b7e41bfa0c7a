package verify

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// budgetStates caps the 3-cache MSI rows: large enough that the
// fingerprint table's fixed minimum footprint is amortized away, small
// enough for tier 1 (the full 3-cache space runs to millions of states).
const budgetStates = 50_000

// perStateBudget lists the explorations whose per-state cost is held to
// a ceiling, with the readings the ceilings derive from. All four
// columns are counts, not timings: at Parallelism 1 they repeat run
// after run (the first two to three decimals, the third exactly), so the
// ceiling is the recorded reading + 10 % and a trip is a structural
// change (a per-successor allocation, a wider table slot, a wider
// column), never runner jitter. After an intentional change, re-record
// the reading and say why. (Allocs last re-recorded, downward, when a
// stored state stopped carrying its edge's label string and kept rule
// ordinals to replay; a label per successor creeping back trips every
// row. The kept column was added then. The bytes column also moves by a
// percent with the key hash — shards double one by one — and was left
// where it was.) Allocs were re-recorded downward again, and the alloc
// column added, when expansion stopped allocating per successor: a
// level's successors sit in one buffer per worker, with no pointer in a
// clean one, and the next frontier reuses the array of two levels back.
// The per-parent successor slice, 70 % of the bytes, is gone. Allocs
// went 3.80/1.49/1.85/3.58 → 3.03/0.71/0.89/2.12 and allocated bytes per
// state 1424/1088/2347/1203 → 1084/748/2122/433; a per-parent buffer
// creeping back trips both columns on every row. The two liveness rows'
// kept and allocated bytes were re-recorded downward when liveness
// stopped keeping a successor graph (a CSR of 4 bytes per edge plus row
// offsets, inverted into a predecessor graph of the same size at the
// end) and kept one drain pointer per state instead: kept went 30.3 →
// 16.4 B/state on 4-cache/fingerprint and 31.8 → 20.2 on 2-cache/reduced,
// whose fused-edge ordinals alone hold 15 of those bytes, and allocated
// bytes 2122/433 → 2067/373. An edge column creeping back trips kept on
// both rows. The exact rows' visited and allocated bytes were re-recorded
// downward when the canonical key stopped writing a length byte for every
// ordered queue and wrote only the count of messages in flight and the
// messages: 3-cache visited 145.7 → 98.5 and allocated 1084 → 978,
// 2-cache/reduced 100.9 → 73.9 and 373 → 343. A per-queue prefix creeping
// back trips both. Allocs and allocated bytes were re-recorded downward
// when a worker stopped treating a state it had already found unseen in
// the level as new: a repeat names the first occurrence, writes no
// snapshot or key string, and keeps an edge only for a violation. The counter that fell is the snapshots
// written (TestSnapshotOncePerState): at Parallelism 1, run to the level
// boundary past each row's cap, 115,989 → 51,739 on both 3-cache rows,
// 178,929 → 63,117 at four caches and 6,592 → 4,928 reduced. The exact
// row falls most, since its key string is made once per distinct state:
// allocs 3.03/0.71/0.89/2.12 → 1.75/0.71/0.89/1.77 and allocated bytes
// 978/748/2067/343 → 715/567/1312/321. A per-repeat snapshot or key
// creeping back trips the alloc column on every row.
var perStateBudget = []struct {
	name, mode string
	cfg        func() Config
	states     int
	allocs     float64 // heap allocations per explored state
	alloc      float64 // heap bytes allocated per explored state
	bytes      float64 // retained visited-set bytes per state
	kept       int     // bytes the checker's own columns hold at the end (keptBytes)
}{
	{"3-cache/exact", "nonstalling", func() Config { return budget3Cache(false) }, budgetStates, 1.745, 715, 98.5, 663552},
	{"3-cache/fingerprint", "nonstalling", func() Config { return budget3Cache(true) }, budgetStates, 0.712, 567, 26.5, 663552},
	// TestFourCacheGolden's capped run: the cache count the
	// factorial-free canonicalization unlocks.
	{"4-cache/fingerprint", "nonstalling", func() Config {
		cfg := QuickConfig()
		cfg.Caches = 4
		cfg.MaxStates = 40_000
		cfg.Fingerprint = true
		return cfg
	}, 40_000, 0.892, 1312, 19.7, 655360},
	// The registry's most fusible design under partial-order reduction
	// (4929 states, TestReducedGoldenCounts).
	{"2-cache/reduced", "stalling", func() Config {
		cfg := QuickConfig()
		cfg.Reduce = true
		return cfg
	}, 4929, 1.774, 321, 73.9, 99328},
}

func budget3Cache(fingerprint bool) Config {
	cfg := DefaultConfig()
	cfg.MaxStates = budgetStates
	cfg.CheckLiveness = false // the liveness columns are identical in both modes
	cfg.Fingerprint = fingerprint
	return cfg
}

// keptBytes is what the checker retains outside the visited table: the
// parent and edge columns of every stored state and, with liveness on,
// the drain pointers and the quiescence flags. It is the allocated
// size, capacity not length, since that is what a memory bound must
// count.
func keptBytes(c *checker) int {
	return 4*(cap(c.parent)+cap(c.edgeEnd)+cap(c.edges)+cap(c.drain)) + cap(c.quiet)
}

// TestFingerprintBytesReduction is the checker's per-state budget: every
// row of perStateBudget stays under its allocs/state, bytes/state and
// kept-bytes ceilings, and fingerprint mode keeps its headline memory
// claim — the table without its key column retains at least 3.6x fewer
// bytes per state than with it, while exploring the identical state space.
// It read 5.4x while keys wrote every empty queue and reads 3.7x on the
// 3-cache rows now; the floor was derived as the rows are (a 4.0x reading
// of an interim key form ÷ 1.1) and was not lowered again, since the
// readings repeat exactly. The exact and fingerprint ceilings guard each
// mode on its own; the ratio guards only that the key column still
// dominates.
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
		c := explore(context.Background(), p, cfg)
		runtime.ReadMemStats(&m1)
		res := c.res
		if !res.OK() || res.States != row.states {
			t.Fatalf("%s: want %d states PASS, got %v", row.name, row.states, res)
		}
		results[row.name] = res
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(res.States)
		alloc := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.States)
		bytes := float64(res.VisitedBytes) / float64(res.States)
		kept := keptBytes(c)
		t.Logf("%s: %.3f allocs/state, %.0f allocated bytes/state, %.1f visited bytes/state, %d bytes kept beside the table (%.1f/state)",
			row.name, allocs, alloc, bytes, kept, float64(kept)/float64(res.States))
		if allocs > 1.10*row.allocs {
			t.Errorf("%s: %.3f allocs/state, over the recorded %.3f + 10%%", row.name, allocs, row.allocs)
		}
		if alloc > 1.10*row.alloc {
			t.Errorf("%s: %.0f allocated bytes/state, over the recorded %.0f + 10%%", row.name, alloc, row.alloc)
		}
		if bytes > 1.10*row.bytes {
			t.Errorf("%s: %.1f visited bytes/state, over the recorded %.1f + 10%%", row.name, bytes, row.bytes)
		}
		if float64(kept) > 1.10*float64(row.kept) {
			t.Errorf("%s: %d bytes kept beside the visited table, over the recorded %d + 10%%", row.name, kept, row.kept)
		}
	}
	exact, fp := results["3-cache/exact"], results["3-cache/fingerprint"]
	if exact.Edges != fp.Edges || exact.Depth != fp.Depth {
		t.Fatalf("modes diverged: exact %d/%d/%d, fingerprint %d/%d/%d",
			exact.States, exact.Edges, exact.Depth, fp.States, fp.Edges, fp.Depth)
	}
	if ratio := float64(exact.VisitedBytes) / float64(fp.VisitedBytes); ratio < 3.6 {
		t.Errorf("visited-set reduction %.1fx, want ≥3.6x (exact %d B, fingerprint %d B)",
			ratio, exact.VisitedBytes, fp.VisitedBytes)
	}
}

// TestSuccOutSize: every successor of a level sits in its worker's
// buffer until the merge, so succOut's width is resident memory on the
// deep configurations (it was 160 bytes, pointers throughout, when each
// parent allocated its own successor slice).
func TestSuccOutSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes recorded for 64-bit targets")
	}
	if got := unsafe.Sizeof(succOut{}); got > 56 {
		t.Errorf("succOut is %d bytes, over the recorded 56", got)
	}
}

// TestSnapshotOncePerState: a worker snapshots a state the first time a
// level reaches it unseen and never again, so at Parallelism 1 — one
// worker, every successor of a level in one buffer — the snapshots
// written are exactly the states stored after the initial one. With
// four workers a state two workers both reach in a level is
// snapshotted by each, so the count may only be larger, and nothing the
// merge keeps may differ. Each perStateBudget row runs to the first
// level boundary at or past its cap, since a cap cuts a level whose
// successors are already snapshotted.
func TestSnapshotOncePerState(t *testing.T) {
	if testing.Short() {
		t.Skip("3- and 4-cache explorations in -short mode")
	}
	for _, row := range perStateBudget {
		p := goldenProtocol(t, "MSI", row.mode)
		run := func(par int) (*checker, int64) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := row.cfg()
			cfg.MaxStates = DefaultConfig().MaxStates
			cfg.Parallelism = par
			cfg.Progress = func(pr Progress) {
				if pr.States >= row.states {
					cancel()
				}
			}
			c := explore(ctx, p, cfg)
			var snaps int64
			for _, w := range c.pool {
				snaps += w.snaps
			}
			return c, snaps
		}
		seq, seqSnaps := run(1)
		res := seq.res
		if len(res.Violations) > 0 || res.States < row.states {
			t.Fatalf("%s: want ≥%d states and no violation, got %v", row.name, row.states, res)
		}
		if seqSnaps != int64(res.States-1) {
			t.Errorf("%s P1: %d snapshots written for %d states after the initial one", row.name, seqSnaps, res.States-1)
		}
		par, parSnaps := run(4)
		if got := par.res; got.States != res.States || got.Edges != res.Edges || got.Depth != res.Depth {
			t.Errorf("%s P4: %d/%d/%d states/edges/depth, P1 %d/%d/%d", row.name,
				got.States, got.Edges, got.Depth, res.States, res.Edges, res.Depth)
		}
		if !slices.Equal(par.parent, seq.parent) || !slices.Equal(par.edgeEnd, seq.edgeEnd) || !slices.Equal(par.edges, seq.edges) {
			t.Errorf("%s P4: the parent or edge columns differ from P1's", row.name)
		}
		if parSnaps < int64(res.States-1) {
			t.Errorf("%s P4: %d snapshots written for %d states after the initial one", row.name, parSnaps, res.States-1)
		}
		t.Logf("%s: %d states, depth %d; snapshots P1 %d, P4 %d", row.name, res.States, res.Depth, seqSnaps, parSnaps)
	}
}
