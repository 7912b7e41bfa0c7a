package fuzz

import (
	"context"
	"testing"
	"time"

	"protogen/internal/vet/vettest"
)

// cancelCampaignConfig is a small-but-real campaign configuration.
func cancelCampaignConfig() Config {
	cfg := DefaultConfig()
	cfg.SimSteps = 500
	cfg.Shrink = false
	cfg.Parallelism = 4
	return cfg
}

// TestRunCtxCancelPartialReport cancels from the progress callback after
// two completed seeds: the pool must drain promptly, leak no goroutines,
// and report only completed seeds in seed order with Canceled set.
func TestRunCtxCancelPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := cancelCampaignConfig()
	cfg.Progress = func(p Progress) {
		if p.SeedsDone == 2 {
			cancel()
		}
	}
	const total = 64
	before := vettest.Goroutines()
	start := time.Now()
	rep, err := RunCtx(ctx, 0, total, cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canceled || rep.SeedsTotal != total {
		t.Fatalf("want canceled partial report over %d seeds, got %+v", total, rep)
	}
	if len(rep.Specs) == 0 || len(rep.Specs) >= total {
		t.Fatalf("completed seeds = %d, want in (0, %d)", len(rep.Specs), total)
	}
	if rep.Pass+rep.Fail != len(rep.Specs) {
		t.Errorf("pass %d + fail %d != %d completed seeds", rep.Pass, rep.Fail, len(rep.Specs))
	}
	for i := 1; i < len(rep.Specs); i++ {
		if rep.Specs[i].Seed <= rep.Specs[i-1].Seed {
			t.Fatalf("seed order broken: %d after %d", rep.Specs[i].Seed, rep.Specs[i-1].Seed)
		}
	}
	if elapsed > 60*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	vettest.NoLeak(t, before)
}

// TestRunCtxCancelAfterLastSeed: a context that fires only after every
// seed has completed must NOT mark the report canceled — all the work
// was done; protogen fuzz would otherwise fail a fully successful campaign.
func TestRunCtxCancelAfterLastSeed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total = 4
	cfg := cancelCampaignConfig()
	cfg.Parallelism = 1 // single worker: the last progress event is truly last
	cfg.Progress = func(p Progress) {
		if p.SeedsDone == total {
			cancel()
		}
	}
	rep, err := RunCtx(ctx, 0, total, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Canceled {
		t.Fatalf("fully completed campaign reported canceled: %+v", rep)
	}
	if len(rep.Specs) != total {
		t.Fatalf("completed seeds = %d, want %d", len(rep.Specs), total)
	}
}

// TestRunCtxKeepsCompletedFailVerdict: a failing verdict whose oracle
// completed before cancellation is kept in the partial report — a
// discovered bug must never be reported as all-pass just because the
// timeout fired afterwards.
func TestRunCtxKeepsCompletedFailVerdict(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := cancelCampaignConfig()
	cfg.Families = []string{"FZ_MI_double_grant"} // every seed fails
	cfg.Parallelism = 1
	cfg.Progress = func(p Progress) {
		if p.SeedsDone == 1 {
			cancel() // after the first verdict completed
		}
	}
	rep, err := RunCtx(ctx, 0, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canceled {
		t.Fatalf("want canceled report, got %+v", rep)
	}
	if rep.Fail == 0 {
		t.Fatalf("completed failing verdict was dropped: %+v", rep)
	}
}

// TestShrinkCtxAbortsOnCancel: a canceled context reaches into the
// shrinker's fixpoint loop instead of letting it run dozens of oracle
// checks to completion.
func TestShrinkCtxAbortsOnCancel(t *testing.T) {
	shape, ok := ShapeByName("FZ_MI_double_grant")
	if !ok {
		t.Fatal("missing broken family")
	}
	cfg := cancelCampaignConfig()
	r := CheckSource(shape.Source(), 1, 7, cfg)
	if r.OK() {
		t.Fatal("planted bug not caught")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := shrinkCtx(ctx, shape.Source(), r.Failure, r.SimSeed, cfg); err == nil {
		t.Fatal("canceled shrink must error")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("canceled shrink still took %v", elapsed)
	}
}

// TestRunCtxPreCanceled: an already-canceled context completes no seeds.
func TestRunCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunCtx(ctx, 0, 8, cancelCampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canceled || len(rep.Specs) != 0 || rep.SeedsTotal != 8 {
		t.Fatalf("pre-canceled campaign: %+v", rep)
	}
}

// TestCampaignProgressCounters: an uncanceled campaign's cumulative
// progress ends exactly at the report's totals.
func TestCampaignProgressCounters(t *testing.T) {
	cfg := cancelCampaignConfig()
	var last Progress
	cfg.Progress = func(p Progress) { last = p }
	rep, err := RunCtx(context.Background(), 0, 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Canceled {
		t.Fatalf("spurious cancel: %+v", rep)
	}
	if last.SeedsDone != 6 || last.SeedsTotal != 6 {
		t.Fatalf("final progress %+v, want 6/6 seeds", last)
	}
	if last.Fail != rep.Fail || last.RanChecks != rep.RanChecks || last.CacheHits != rep.CachedChecks {
		t.Errorf("final progress %+v disagrees with report pass/fail %d/%d ran %d cached %d",
			last, rep.Pass, rep.Fail, rep.RanChecks, rep.CachedChecks)
	}
	if last.Kind() != "fuzz" {
		t.Errorf("progress kind %q", last.Kind())
	}
}
