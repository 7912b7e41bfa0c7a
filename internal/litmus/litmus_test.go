package litmus

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

func gen(t *testing.T, src string, opts core.Options) *ir.Protocol {
	t.Helper()
	spec, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func modes() map[string]core.Options {
	return map[string]core.Options{
		"nonstalling": core.NonStallingOpts(),
		"stalling":    core.StallingOpts(),
		"deferred":    core.DeferredOpts(),
	}
}

// TestCatalogExhaustiveRegistry is the oracle's core soundness matrix:
// every catalog shape, explored exhaustively on every registry protocol
// × every generation mode, completes within budget with no forbidden
// outcome and no stuck configuration under the protocol's default
// axiom.
func TestCatalogExhaustiveRegistry(t *testing.T) {
	for _, e := range protocols.All {
		for mode, opts := range modes() {
			e, mode, opts := e, mode, opts
			t.Run(e.Name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				p := gen(t, e.Source, opts)
				ax := DefaultAxiom(p)
				rep := RunSuite(context.Background(), p, Catalog(), ax,
					Options{Caches: 3, Exhaustive: true}, nil)
				for _, r := range rep.Results {
					if !r.Complete {
						t.Errorf("%s: exploration incomplete after %d states", r.Test, r.States)
					}
					if r.Failed() {
						t.Errorf("%s (axiom %s): forbidden=%v stuck=%v err=%q",
							r.Test, ax, r.Forbidden, r.Stuck, r.Err)
					}
					if r.States == 0 || len(r.Outcomes) == 0 {
						t.Errorf("%s: empty exploration (states=%d outcomes=%d)",
							r.Test, r.States, len(r.Outcomes))
					}
				}
			})
		}
	}
}

// TestSampledSubsetOfExhaustive pins the agreement contract on 3-cache
// MSI, MESI and TSO-CC (the one registry protocol with acquire fences,
// held to the weak axiom): a 10k-run randomized sample of every catalog
// shape stays inside the complete exhaustive outcome set, with no
// forbidden outcome observed by either mode.
func TestSampledSubsetOfExhaustive(t *testing.T) {
	runs := 10000
	if testing.Short() {
		runs = 500
	}
	for _, name := range []string{"MSI", "MESI", "TSO_CC"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := protocols.Lookup(name)
			if !ok {
				t.Fatalf("registry is missing %s", name)
			}
			p := gen(t, e.Source, core.NonStallingOpts())
			ax := DefaultAxiom(p)
			rep := RunSuite(context.Background(), p, Catalog(), ax,
				Options{Caches: 3, Exhaustive: true, Runs: runs, Seed: 1}, nil)
			for _, r := range rep.Results {
				if r.Failed() {
					t.Errorf("%s: forbidden=%v stuck=%v err=%q", r.Test, r.Forbidden, r.Stuck, r.Err)
				}
				if !r.Complete {
					t.Errorf("%s: exhaustive search incomplete", r.Test)
				}
			}
		})
	}
}

func outcomeSet(res Result) []string {
	var out []string
	for _, row := range res.Outcomes {
		out = append(out, row.Outcome)
	}
	sort.Strings(out)
	return out
}

// TestGoldenMP pins MP's and SB's exact outcome sets: the SWMR protocol
// admits only SC outcomes, while TSO-CC's stale Shared copy yields
// exactly the relaxed stale read (flag new, data old) — which the
// acquire variant eliminates again — and the store-buffering 0,0.
func TestGoldenMP(t *testing.T) {
	msi := gen(t, protocols.MSI, core.NonStallingOpts())
	tsocc := gen(t, protocols.TSOCC, core.NonStallingOpts())
	cases := []struct {
		proto *ir.Protocol
		name  string
		test  *Test
		ax    Axiom
		want  []string
		relax []string
	}{
		{msi, "MSI", MP(false), SC,
			[]string{"t1.rd=0 t1.rf=0", "t1.rd=1 t1.rf=0", "t1.rd=1 t1.rf=1"}, nil},
		{msi, "MSI", MP(true), SC,
			[]string{"t1.rd=0 t1.rf=0", "t1.rd=1 t1.rf=0", "t1.rd=1 t1.rf=1"}, nil},
		{tsocc, "TSO_CC", MP(false), Weak,
			[]string{"t1.rd=0 t1.rf=0", "t1.rd=0 t1.rf=1"},
			[]string{"t1.rd=0 t1.rf=1"}},
		{tsocc, "TSO_CC", MP(true), Weak,
			[]string{"t1.rd=0 t1.rf=0", "t1.rd=1 t1.rf=0", "t1.rd=1 t1.rf=1"}, nil},
		// SB: the SWMR protocol proves the relaxed 0,0 absent; TSO-CC's
		// warmed stale copies make it the only reachable outcome.
		{msi, "MSI", SB(), SC,
			[]string{"t0.ry=0 t1.rx=1", "t0.ry=1 t1.rx=0", "t0.ry=1 t1.rx=1"}, nil},
		{tsocc, "TSO_CC", SB(), Weak,
			[]string{"t0.ry=0 t1.rx=0"},
			[]string{"t0.ry=0 t1.rx=0"}},
	}
	for _, c := range cases {
		r := RunTest(context.Background(), c.proto, c.test, c.ax, Options{Caches: 3, Exhaustive: true})
		if r.Failed() || !r.Complete {
			t.Errorf("%s/%s: failed=%v complete=%v err=%q", c.name, c.test.Name, r.Failed(), r.Complete, r.Err)
			continue
		}
		if got := outcomeSet(r); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s/%s/%s outcome set = %v, want %v", c.name, c.test.Name, c.ax, got, c.want)
		}
		if !reflect.DeepEqual(r.Relaxed, c.relax) {
			t.Errorf("%s/%s/%s relaxed = %v, want %v", c.name, c.test.Name, c.ax, r.Relaxed, c.relax)
		}
	}
}

// TestGoldenIRIW pins IRIW's exact outcome sets. On SWMR MSI all 15
// reachable combinations except the causality violation appear (the
// forbidden outcome a=1,b=0,c=1,d=0 — the two readers disagreeing on
// the store order — is proven absent). On TSO-CC the warmed readers
// keep their stale copies, so without acquires only the all-zero
// outcome is reachable.
func TestGoldenIRIW(t *testing.T) {
	msi := gen(t, protocols.MSI, core.NonStallingOpts())
	r := RunTest(context.Background(), msi, IRIW(false), SC, Options{Caches: 4, Exhaustive: true})
	if r.Failed() || !r.Complete {
		t.Fatalf("MSI/IRIW: failed=%v complete=%v err=%q forbidden=%v", r.Failed(), r.Complete, r.Err, r.Forbidden)
	}
	got := outcomeSet(r)
	if len(got) != 15 {
		t.Errorf("MSI/IRIW: %d outcomes, want 15 (all but the causality violation): %v", len(got), got)
	}
	banned := "t2.a=1 t2.b=0 t3.c=1 t3.d=0"
	for _, o := range got {
		if o == banned {
			t.Errorf("MSI/IRIW: forbidden outcome {%s} reachable", banned)
		}
	}

	tsocc := gen(t, protocols.TSOCC, core.NonStallingOpts())
	r = RunTest(context.Background(), tsocc, IRIW(false), Weak, Options{Caches: 4, Exhaustive: true})
	if r.Failed() || !r.Complete {
		t.Fatalf("TSO_CC/IRIW: failed=%v complete=%v err=%q", r.Failed(), r.Complete, r.Err)
	}
	want := []string{"t2.a=0 t2.b=0 t3.c=0 t3.d=0"}
	if got := outcomeSet(r); !reflect.DeepEqual(got, want) {
		t.Errorf("TSO_CC/IRIW outcome set = %v, want %v", got, want)
	}
}

// TestSampleDeterminism: the sampler is a pure function of its seed.
func TestSampleDeterminism(t *testing.T) {
	p := gen(t, protocols.TSOCC, core.NonStallingOpts())
	a, err := Sample(context.Background(), p, MP(false), 3, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(context.Background(), p, MP(false), 3, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Errorf("same seed, different outcome multisets: %v vs %v", a.Outcomes, b.Outcomes)
	}
	c, err := Sample(context.Background(), p, MP(false), 3, 200, 43)
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds should explore different schedules; with a relaxed
	// protocol the outcome histogram almost surely differs.
	if reflect.DeepEqual(a.Outcomes, c.Outcomes) {
		t.Logf("note: seeds 42 and 43 produced identical histograms %v (possible, but suspicious)", a.Outcomes)
	}
}

// TestSeedHopDecorrelated: adjacent runs of one campaign seed must not
// map to adjacent rand sources (seeding run i with seed+i makes it share
// most of its schedule prefix with run i+1).
func TestSeedHopDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := seedHop(3, i)
		if seen[s] {
			t.Fatalf("seedHop collision at i=%d", i)
		}
		seen[s] = true
		if s == 3+int64(i) {
			t.Errorf("seedHop(3, %d) is the additive seed", i)
		}
	}
}

// TestExploreBudget: a tiny MaxStates budget yields an explicit
// incomplete verdict, never a silent truncation passed off as exact.
func TestExploreBudget(t *testing.T) {
	p := gen(t, protocols.MSI, core.NonStallingOpts())
	ex, err := Explore(context.Background(), p, IRIW(false), 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Complete {
		t.Errorf("10-state budget reported a complete exploration of IRIW")
	}
	r := RunTest(context.Background(), p, IRIW(false), SC, Options{Caches: 4, Exhaustive: true, MaxStates: 10})
	if r.Complete {
		t.Errorf("RunTest reported complete under a 10-state budget")
	}
	if r.Failed() {
		t.Errorf("incomplete exploration must not be a failure by itself: %+v", r)
	}
}

// TestExploreCancellation: a canceled context aborts the search with
// the context error and an incomplete verdict.
func TestExploreCancellation(t *testing.T) {
	p := gen(t, protocols.MSI, core.NonStallingOpts())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex, err := Explore(ctx, p, IRIW(false), 4, 0)
	if err == nil {
		t.Fatal("canceled exploration returned no error")
	}
	if ex != nil && ex.Complete {
		t.Error("canceled exploration claims completeness")
	}
}

// TestByName covers catalog lookup.
func TestByName(t *testing.T) {
	all, err := ByName(nil)
	if err != nil || len(all) != len(Catalog()) {
		t.Fatalf("ByName(nil) = %d tests, err %v", len(all), err)
	}
	two, err := ByName([]string{"IRIW", "MP+acq"})
	if err != nil || len(two) != 2 || two[0].Name != "IRIW" || two[1].Name != "MP+acq" {
		t.Fatalf("ByName(IRIW, MP+acq) = %v, err %v", two, err)
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Fatal("unknown test name did not error")
	}
}

// TestParseOutcomeRoundTrip: parseOutcome inverts Outcome.String.
func TestParseOutcomeRoundTrip(t *testing.T) {
	o := Outcome{"t0.a": 2, "t1.b": 0, "t2.long": 13}
	if got := parseOutcome(o.String()); !reflect.DeepEqual(got, o) {
		t.Errorf("parseOutcome(%q) = %v, want %v", o.String(), got, o)
	}
}
