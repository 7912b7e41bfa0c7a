package verify

import (
	"context"
	"testing"
	"time"

	"protogen/internal/core"
	"protogen/internal/protocols"
	"protogen/internal/vet/vettest"
)

// TestCheckCtxCancelMidExploration cancels from inside the progress
// callback a few levels in: the checker must stop at the next level
// boundary with partial counts, the Canceled flag, no goroutine leak,
// and well-bounded wall clock.
func TestCheckCtxCancelMidExploration(t *testing.T) {
	e, _ := protocols.Lookup("MSI")
	p := gen(t, e.Source, core.NonStallingOpts())
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := QuickConfig()
		cfg.Parallelism = par
		levels := 0
		cfg.Progress = func(Progress) {
			if levels++; levels == 3 {
				cancel()
			}
		}
		before := vettest.Goroutines()
		start := time.Now()
		res := CheckCtx(ctx, p, cfg)
		elapsed := time.Since(start)
		cancel()
		if !res.Canceled || res.Complete {
			t.Fatalf("P=%d: want canceled partial result, got %v", par, res)
		}
		// The full space is 11963 states (seedGolden); three levels in,
		// the prefix must be a real strict subset.
		if res.States == 0 || res.States >= 11963 {
			t.Errorf("P=%d: partial states = %d, want in (0, 11963)", par, res.States)
		}
		if res.Depth >= 46 {
			t.Errorf("P=%d: depth %d reached full exploration", par, res.Depth)
		}
		if elapsed > 30*time.Second {
			t.Errorf("P=%d: cancellation took %v", par, elapsed)
		}
		vettest.NoLeak(t, before)
	}
}

// TestCheckCtxPreCanceled: an already-canceled context returns before
// the first level expands — only the initial state is recorded.
func TestCheckCtxPreCanceled(t *testing.T) {
	e, _ := protocols.Lookup("MSI")
	p := gen(t, e.Source, core.StallingOpts())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := CheckCtx(ctx, p, QuickConfig())
	if !res.Canceled || res.Complete {
		t.Fatalf("want canceled result, got %v", res)
	}
	if res.States != 1 || res.Edges != 0 {
		t.Errorf("pre-canceled exploration did work: %v", res)
	}
}

// TestCheckCtxNilContext: a nil ctx behaves like Background.
func TestCheckCtxNilContext(t *testing.T) {
	e, _ := protocols.Lookup("MSI")
	p := gen(t, e.Source, core.StallingOpts())
	cfg := QuickConfig()
	cfg.Parallelism = 1
	res := CheckCtx(nil, p, cfg) //nolint:staticcheck // deliberate nil-ctx contract check
	if res.Canceled || !res.Complete || res.States != 8180 {
		t.Fatalf("nil-ctx run diverged: %v", res)
	}
}

// TestCanceledResultNeverCached: ResultCache.Put drops canceled partial
// results — where a run was interrupted is nondeterministic.
func TestCanceledResultNeverCached(t *testing.T) {
	c, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", &Result{Protocol: "X", States: 7, Canceled: true}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("canceled result entered the cache (%d entries)", c.Len())
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("canceled result served back")
	}
	// A cached-marked result stores clean: Cached describes the serving
	// path, not the result. FalseMerges is a measurement of the keyed
	// exploration like any other count, and survives.
	if err := c.Put("k2", &Result{Protocol: "X", States: 7, Complete: true, Cached: true, FalseMerges: 3}); err != nil {
		t.Fatal(err)
	}
	if r, ok := c.Get("k2"); !ok || r.Cached || r.FalseMerges != 3 {
		t.Fatalf("stored result kept serving-path state or lost a measurement: %+v", r)
	}
}

// TestProgressLevelSnapshots: progress fires once per completed level
// with monotonically growing counts and matches the final result.
func TestProgressLevelSnapshots(t *testing.T) {
	e, _ := protocols.Lookup("MSI")
	p := gen(t, e.Source, core.StallingOpts())
	cfg := QuickConfig()
	cfg.Parallelism = 2
	var events []Progress
	cfg.Progress = func(pr Progress) { events = append(events, pr) }
	res := Check(p, cfg)
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := Progress{}
	for i, ev := range events {
		if ev.States < last.States || ev.Edges < last.Edges || ev.Depth < last.Depth {
			t.Fatalf("event %d regressed: %+v after %+v", i, ev, last)
		}
		if ev.Kind() != "verify" {
			t.Fatalf("event kind %q", ev.Kind())
		}
		last = ev
	}
	if last.States != res.States || last.Edges != res.Edges || last.Frontier != 0 {
		t.Errorf("final event %+v disagrees with result %v", last, res)
	}
}
