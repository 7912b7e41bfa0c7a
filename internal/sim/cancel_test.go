package sim

import (
	"context"
	"testing"
	"time"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

func nonStallingMSI(t *testing.T) *ir.Protocol {
	t.Helper()
	e, _ := protocols.Lookup("MSI")
	spec, err := dsl.Parse(e.Source)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunCtxCancelMidRun cancels from the progress callback: the step
// loop must stop within one cancellation stride, returning the partial
// stats with Canceled set and no error.
func TestRunCtxCancelMidRun(t *testing.T) {
	p := nonStallingMSI(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Caches: 2, Steps: 50_000_000, Seed: 3, Workload: Contended{},
		Progress: func(Progress) { cancel() },
	}
	start := time.Now()
	st, err := RunCtx(ctx, p, cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Canceled {
		t.Fatalf("want canceled stats, got %+v", st)
	}
	if st.Steps == 0 || st.Steps >= cfg.Steps {
		t.Fatalf("partial steps = %d, want in (0, %d)", st.Steps, cfg.Steps)
	}
	if elapsed > 30*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestRunCtxPreCanceled: an already-canceled context runs zero steps.
func TestRunCtxPreCanceled(t *testing.T) {
	p := nonStallingMSI(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := RunCtx(ctx, p, Config{Caches: 2, Steps: 1000, Seed: 1, Workload: Contended{}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Canceled || st.Steps != 0 {
		t.Fatalf("pre-canceled run: %+v", st)
	}
}

// TestRunProgressStride: progress fires every progressStride steps with
// growing step counts, and an unset callback changes nothing.
func TestRunProgressStride(t *testing.T) {
	p := nonStallingMSI(t)
	var events []Progress
	cfg := Config{
		Caches: 2, Steps: 50_000, Seed: 5, Workload: Contended{},
		Progress: func(pr Progress) { events = append(events, pr) },
	}
	st, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Canceled {
		t.Fatalf("spurious cancel: %+v", st)
	}
	if len(events) != 4 { // steps 10000, 20000, 30000, 40000
		t.Fatalf("got %d progress events, want 4: %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.Steps != (i+1)*progressStride || ev.TotalSteps != 50_000 {
			t.Errorf("event %d: %+v", i, ev)
		}
		if ev.Kind() != "simulate" {
			t.Errorf("event kind %q", ev.Kind())
		}
	}
	// Same seed without the callback: identical stats (hooks observe,
	// never perturb).
	plain, err := Run(p, Config{Caches: 2, Steps: 50_000, Seed: 5, Workload: Contended{}})
	if err != nil {
		t.Fatal(err)
	}
	plain.Canceled = st.Canceled
	if plain != st {
		t.Errorf("progress hook perturbed the run: %+v vs %+v", st, plain)
	}
}
