package fuzz

import (
	"context"
	"testing"

	"protogen/internal/verify"
)

// TestCampaignResultCache is the acceptance gate for campaign caching:
// a second run over an identical seed range must serve every model
// check from the result cache — zero re-verifications — and report the
// same verdicts.
func TestCampaignResultCache(t *testing.T) {
	cache, err := verify.OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Shrink = false
	cfg.SimSteps = 500
	cfg.Parallelism = 2
	cfg.Cache = cache

	cold, err := RunCtx(context.Background(), 0, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.RanChecks == 0 {
		t.Fatal("cold run performed no model checks")
	}
	if cold.CachedChecks != 0 {
		t.Fatalf("cold run reported %d cached checks", cold.CachedChecks)
	}

	warm, err := RunCtx(context.Background(), 0, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.RanChecks != 0 {
		t.Fatalf("warm run re-verified %d specs, want 0", warm.RanChecks)
	}
	if warm.CachedChecks != cold.RanChecks {
		t.Fatalf("warm run cached %d checks, want %d", warm.CachedChecks, cold.RanChecks)
	}
	for i := range cold.Specs {
		a, b := cold.Specs[i], warm.Specs[i]
		if a.Failure != b.Failure || len(a.Modes) != len(b.Modes) {
			t.Fatalf("seed %d verdict drifted through the cache: %v vs %v", a.Seed, a.Failure, b.Failure)
		}
		for j := range a.Modes {
			ma, mb := a.Modes[j], b.Modes[j]
			mb.Cached = false // the only field allowed to differ
			if ma != mb {
				t.Errorf("seed %d mode %s drifted: %+v vs %+v", a.Seed, ma.Mode, ma, mb)
			}
			if !b.Modes[j].Cached {
				t.Errorf("seed %d mode %s not served from cache", a.Seed, ma.Mode)
			}
		}
	}

	// A warm cache on disk survives reopening (a fresh process).
	re, err := verify.OpenResultCache(cacheDirOf(t, cache))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = re
	again, err := RunCtx(context.Background(), 0, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.RanChecks != 0 {
		t.Fatalf("reopened cache re-verified %d specs, want 0", again.RanChecks)
	}
}

// cacheDirOf recovers the directory a test cache was opened under.
func cacheDirOf(t *testing.T, c *verify.ResultCache) string {
	t.Helper()
	return c.Dir()
}
