package fuzz

import (
	"context"
	"reflect"
	"testing"
)

// TestCampaignShippedSeeds: the differential campaign is clean over a
// representative seed range of the shipped families — the library-level
// form of the protogen fuzz acceptance run.
func TestCampaignShippedSeeds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shrink = false
	last := uint64(24)
	if testing.Short() {
		last = 8
	}
	rep, err := RunCtx(context.Background(), 0, last, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fail != 0 {
		for _, r := range rep.Specs {
			if !r.OK() {
				t.Errorf("seed %d (%s L=%d): %s — %s", r.Seed, r.Family, r.PendingLimit, r.Failure, r.Failure.Detail)
			}
		}
	}
	if rep.Pass != int(last) {
		t.Errorf("pass=%d, want %d", rep.Pass, last)
	}
	if len(rep.Families) < 4 {
		t.Errorf("seed range covered only %d families: %v", len(rep.Families), rep.Families)
	}
}

// TestCampaignDeterministic: reports are identical at every parallelism,
// and seed mapping is a pure function.
func TestCampaignDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shrink = false
	cfg.SimSteps = 500
	seq := cfg
	seq.Parallelism = 1
	par := cfg
	par.Parallelism = 4
	a, err := RunCtx(context.Background(), 3, 9, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), 3, 9, par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Specs {
		ra, rb := a.Specs[i], b.Specs[i]
		ra.ElapsedMS, rb.ElapsedMS = 0, 0
		for j := range ra.Modes {
			// Mode results embed no timing; compare wholesale.
			if ra.Modes[j] != rb.Modes[j] {
				t.Errorf("seed %d mode %s differs across parallelism", ra.Seed, ra.Modes[j].Mode)
			}
		}
		ra.Modes, rb.Modes = nil, nil
		if !reflect.DeepEqual(ra, rb) {
			t.Errorf("seed %d report differs across parallelism:\n%+v\n%+v", ra.Seed, ra, rb)
		}
	}
	// Same seed, same pool -> same spec.
	s1, l1, ss1 := SpecForSeed(42, nil)
	s2, l2, ss2 := SpecForSeed(42, nil)
	if s1.Name() != s2.Name() || l1 != l2 || ss1 != ss2 {
		t.Error("SpecForSeed is not deterministic")
	}
}

// TestBrokenFamiliesCaught: every deliberately defective family is caught
// by the campaign, and the double-grant reproducer shrinks to a handful
// of processes (the ISSUE's acceptance bound is ≤ 6).
func TestBrokenFamiliesCaught(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shrink = false
	for _, p := range BrokenShapes() {
		r := CheckSource(p.Source(), 1, 7, cfg)
		if r.OK() {
			t.Errorf("%s: defective spec passed the campaign", p.Name())
			continue
		}
		if r.Failure.Class != "safety" && r.Failure.Class != "liveness" {
			t.Errorf("%s: unexpected failure class %s", p.Name(), r.Failure)
		}
	}
}

// TestShrinkDoubleGrant: the acceptance-bound shrink — the MI double-grant
// bug reduces to at most 6 SSP processes while still witnessing the SWMR
// breach.
func TestShrinkDoubleGrant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shrink = false
	p, ok := ShapeByName("FZ_MI_double_grant")
	if !ok {
		t.Fatal("broken shape missing")
	}
	r := CheckSource(p.Source(), 1, 7, cfg)
	if r.OK() {
		t.Fatal("double-grant spec passed")
	}
	min, err := Shrink(p.Source(), r.Failure, r.SimSeed, cfg)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	n, err := TxnCount(min)
	if err != nil {
		t.Fatalf("reproducer unparseable: %v", err)
	}
	if n > 6 {
		t.Errorf("reproducer has %d processes, want <= 6:\n%s", n, min)
	}
	// The reproducer still fails the same way.
	rr := CheckSource(min, 1, 7, cfg)
	if rr.Failure.Class != r.Failure.Class {
		t.Errorf("reproducer failure %s, want class %s", rr.Failure, r.Failure.Class)
	}
}

// TestCappedModeIsNotDifferential: a mode that hits the state cap has no
// verdict; it must report "capped", never a phantom mode disagreement.
// (Regression: stalling completes and finds the planted deadlock at 177
// states while the other modes are capped below their ~284.)
func TestCappedModeIsNotDifferential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shrink = false
	cfg.SimSteps = 0
	cfg.MaxStates = 200
	p, _ := ShapeByName("FZ_MSI_no_invalidate")
	r := CheckSource(p.Source(), 1, 7, cfg)
	if r.Failure.Class == "differential" {
		t.Fatalf("capped run misreported as differential: %+v", r.Modes)
	}
	if r.OK() {
		t.Fatal("capped run cannot be a pass")
	}
	if r.Failure.Class != "capped" && r.Failure.Class != "liveness" {
		t.Errorf("unexpected failure class %s", r.Failure)
	}
}

// TestLintVerdictAndFilter: the static-analyzer pre-pass records a
// per-spec verdict without skipping the model checks (there is no
// filter), and NoLint turns the dimension off. The shrunk
// no-invalidate reproducer is the calibration subject: its stuck
// Inv_Ack await is the one defect class the analyzer proves at error
// severity (the full family still has sendable arms and only lints
// suspect).
func TestLintVerdictAndFilter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shrink = false
	cfg.SimSteps = 0
	entries, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	src := ""
	for _, e := range entries {
		if e.Name == "FZ_MSI_no_invalidate" {
			src = e.Source
		}
	}
	if src == "" {
		t.Fatal("corpus reproducer missing")
	}
	r := CheckSource(src, 1, 7, cfg)
	if r.Lint != "broken" {
		t.Fatalf("lint verdict %q, want broken", r.Lint)
	}
	if r.OK() {
		t.Fatal("checker must also fail the spec")
	}
	if len(r.Modes) == 0 {
		t.Fatal("a broken lint verdict must not skip the model checks")
	}

	cfg.NoLint = true
	r = CheckSource(src, 1, 7, cfg)
	if r.Lint != "" {
		t.Fatalf("NoLint run still carries verdict %q", r.Lint)
	}

	// A correct family lints clean and passes; the lint-vs-checker
	// cross-check must stay silent.
	cfg = DefaultConfig()
	cfg.Shrink = false
	cfg.SimSteps = 0
	good, ok := ShapeByName("FZ_MSI")
	if !ok {
		t.Fatal("shipped shape missing")
	}
	r = CheckSource(good.Source(), 1, 7, cfg)
	if !r.OK() || r.Lint == "broken" {
		t.Fatalf("shipped family: failure=%s lint=%s", r.Failure, r.Lint)
	}
}

// TestShrinkRejectsPassingSpec: shrinking needs a failure to preserve.
func TestShrinkRejectsPassingSpec(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shrink = false
	if _, err := Shrink(Params{}.Source(), Failure{}, 1, cfg); err == nil {
		t.Error("Shrink of a passing spec must fail")
	}
}

// TestRunRejectsBadInput: seed ranges and family names are validated.
func TestRunRejectsBadInput(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := RunCtx(context.Background(), 5, 2, cfg); err == nil {
		t.Error("inverted seed range must error")
	}
	cfg.Families = []string{"no-such-family"}
	if _, err := RunCtx(context.Background(), 0, 1, cfg); err == nil {
		t.Error("unknown family must error")
	}
}

// TestLitmusVerdictDimension: the litmus oracle records its verdict as
// the fourth dimension on every checker-clean seed, a tiny state budget
// degrades the verdict to "capped" without failing the campaign, and
// NoLitmus removes the dimension entirely.
func TestLitmusVerdictDimension(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shrink = false
	cfg.SimSteps = 0
	rep, err := RunCtx(context.Background(), 0, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Specs {
		if r.OK() && r.Litmus != "clean" {
			t.Errorf("seed %d (%s): litmus verdict %q on a clean run, want clean", r.Seed, r.Family, r.Litmus)
		}
	}

	capped := cfg
	capped.LitmusMaxStates = 3
	rep, err = RunCtx(context.Background(), 0, 2, capped)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Specs {
		if r.OK() && r.Litmus != "capped" {
			t.Errorf("seed %d: litmus verdict %q under a 3-state budget, want capped", r.Seed, r.Litmus)
		}
		if !r.OK() && (r.Failure.Class == "litmus" || r.Failure.Class == "litmus-vs-checker") {
			t.Errorf("seed %d: capped exploration escalated to failure %s", r.Seed, r.Failure)
		}
	}

	off := cfg
	off.NoLitmus = true
	rep, err = RunCtx(context.Background(), 0, 2, off)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Specs {
		if r.Litmus != "" {
			t.Errorf("seed %d: litmus verdict %q with the oracle disabled", r.Seed, r.Litmus)
		}
	}
}
