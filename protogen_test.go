package protogen_test

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"protogen"
)

// TestAPIQuickstart exercises the documented quick-start path end to end.
func TestAPIQuickstart(t *testing.T) {
	spec, err := protogen.Parse(protogen.BuiltinMSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := protogen.Generate(spec, protogen.NonStalling())
	if err != nil {
		t.Fatal(err)
	}
	out := protogen.RenderTable(p.Cache, protogen.TableOptions{})
	if !strings.Contains(out, "IMADS") {
		t.Errorf("table missing IMADS")
	}
	cfg := protogen.QuickVerifyConfig()
	res, err := protogen.NewEngine().Verify(context.Background(), protogen.VerifyJob{Protocol: p, Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("verify: %v", res.Violations[0])
	}
}

// TestAPIBuiltinsComplete: all six SSPs parse, generate and round-trip
// through the DSL printer.
func TestAPIBuiltinsComplete(t *testing.T) {
	if len(protogen.Builtins()) != 6 {
		t.Fatalf("expected 6 built-ins, got %d", len(protogen.Builtins()))
	}
	for _, e := range protogen.Builtins() {
		spec, err := protogen.Parse(e.Source)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		// Round-trip: format -> re-parse -> generate must agree on counts.
		spec2, err := protogen.Parse(protogen.FormatSSP(spec))
		if err != nil {
			t.Fatalf("%s: round-trip parse: %v", e.Name, err)
		}
		p1, err := protogen.Generate(spec, protogen.NonStalling())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		p2, err := protogen.Generate(spec2, protogen.NonStalling())
		if err != nil {
			t.Fatalf("%s: round-trip generate: %v", e.Name, err)
		}
		s1, t1, _ := p1.Cache.Counts()
		s2, t2, _ := p2.Cache.Counts()
		if s1 != s2 || t1 != t2 {
			t.Errorf("%s: round trip changed the generated protocol: %d/%d vs %d/%d", e.Name, s1, t1, s2, t2)
		}
	}
}

// TestAPIMurphiEmission: Murphi output exists for every built-in.
func TestAPIMurphiEmission(t *testing.T) {
	p, err := protogen.GenerateSource(protogen.BuiltinMSI, protogen.NonStalling())
	if err != nil {
		t.Fatal(err)
	}
	src := protogen.EmitMurphi(p, protogen.DefaultMurphiOptions())
	for _, want := range []string{"invariant \"SWMR\"", "cache_IMADS"} {
		if !strings.Contains(src, want) {
			t.Errorf("murphi output missing %q", want)
		}
	}
}

// TestQuickOptionsAlwaysGenerate: property — every combination of the
// generation options produces a valid MSI protocol whose stable states
// are preserved, whose stalling mode controls derived-state existence,
// and whose pending limit bounds absorption chains.
func TestQuickOptionsAlwaysGenerate(t *testing.T) {
	spec, err := protogen.Parse(protogen.BuiltinMSI)
	if err != nil {
		t.Fatal(err)
	}
	f := func(nonStall, immediate, transient, prune bool, limit uint8) bool {
		opts := protogen.Options{
			NonStalling:           nonStall,
			ImmediateResponses:    immediate,
			TransientAccess:       transient,
			PendingLimit:          int(limit % 5),
			PruneSharerOnStalePut: prune,
		}
		p, err := protogen.Generate(spec, opts)
		if err != nil {
			t.Logf("generate failed: %v", err)
			return false
		}
		// Stable states always survive.
		for _, s := range []protogen.StateName{"I", "S", "M"} {
			st := p.Cache.State(s)
			if st == nil || st.Kind != 0 {
				return false
			}
		}
		// Chains never exceed the pending limit.
		for _, n := range p.Cache.Order {
			if len(p.Cache.State(n).Chain) > int(limit%5) {
				return false
			}
		}
		// Stalling mode has no derived states at all.
		if !nonStall {
			for _, n := range p.Cache.Order {
				if len(p.Cache.State(n).Chain) > 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSimulationSeeds: property — any seed yields a clean (SC-valid,
// error-free) simulation of non-stalling MSI.
func TestQuickSimulationSeeds(t *testing.T) {
	p, err := protogen.GenerateSource(protogen.BuiltinMSI, protogen.NonStalling())
	if err != nil {
		t.Fatal(err)
	}
	eng := protogen.NewEngine()
	f := func(seed int64) bool {
		st, err := eng.Simulate(context.Background(), protogen.SimulateJob{
			Protocol: p,
			Config:   protogen.SimConfig{Caches: 2, Steps: 2000, Seed: seed, Workload: protogen.StandardWorkloads()[0]},
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return st.SCViolations == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPrimerBaselinesConsistent: the two baselines agree on the cells they
// share (the stalling table is a restriction of the non-stalling one
// except where stalls replace absorption).
func TestPrimerBaselinesConsistent(t *testing.T) {
	ns := protogen.PrimerNonStallingMSI()
	st := protogen.PrimerStallingMSI()
	for key, v := range st.Cells {
		nsv, ok := ns.Cells[key]
		if !ok {
			t.Errorf("stalling-only cell %s", key)
			continue
		}
		if v != nsv && v != "stall" {
			t.Errorf("cell %s: stalling=%q vs non-stalling=%q", key, v, nsv)
		}
	}
}

// TestAPIFormatProtocol: the generated FSM renders in the DSL's controller
// form (§IV-B).
func TestAPIFormatProtocol(t *testing.T) {
	p, err := protogen.GenerateSource(protogen.BuiltinMSI, protogen.NonStalling())
	if err != nil {
		t.Fatal(err)
	}
	out := protogen.FormatProtocol(p)
	for _, want := range []string{
		"controller cache", "controller directory",
		"state IMADS (transient, origin I, target M, chain S, set {S}, owes Fwd_GetS)",
		"deferred obligations",
		"on Fwd_GetS { defer; next IMADS }",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatProtocol missing %q", want)
		}
	}
}
