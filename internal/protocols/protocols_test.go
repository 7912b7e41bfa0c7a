package protocols_test

import (
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/protocols"
	"protogen/internal/verify"
)

// TestRegistry: the registry is complete, names are unique and every
// lookup round-trips.
func TestRegistry(t *testing.T) {
	if len(protocols.All) != 6 {
		t.Fatalf("expected 6 built-in SSPs, got %d", len(protocols.All))
	}
	seen := map[string]bool{}
	for _, e := range protocols.All {
		if e.Name == "" || e.Source == "" || e.Paper == "" {
			t.Errorf("entry %q incomplete", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate builtin name %q", e.Name)
		}
		seen[e.Name] = true
		got, ok := protocols.Lookup(e.Name)
		if !ok || got.Source != e.Source {
			t.Errorf("Lookup(%q) does not round-trip", e.Name)
		}
	}
	if _, ok := protocols.Lookup("no-such-protocol"); ok {
		t.Error("Lookup of an unknown name must fail")
	}
}

// TestBuiltinsParse: every built-in SSP parses and validates.
func TestBuiltinsParse(t *testing.T) {
	for _, e := range protocols.All {
		if _, err := dsl.Parse(e.Source); err != nil {
			t.Errorf("%s: parse: %v", e.Name, err)
		}
	}
}

// TestBuiltinsGenerate: every built-in SSP generates under both the
// stalling and the non-stalling option sets, and the concurrent cache
// controller is never smaller than the atomic one.
func TestBuiltinsGenerate(t *testing.T) {
	for _, e := range protocols.All {
		spec, err := dsl.Parse(e.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", e.Name, err)
		}
		for _, mode := range []struct {
			name string
			opts core.Options
		}{{"stalling", core.StallingOpts()}, {"nonstalling", core.NonStallingOpts()}} {
			p, err := core.Generate(spec, mode.opts)
			if err != nil {
				t.Errorf("%s %s: generate: %v", e.Name, mode.name, err)
				continue
			}
			stable := len(p.Cache.StableStates())
			states, trans, _ := p.Cache.Counts()
			if states < stable || trans == 0 {
				t.Errorf("%s %s: suspicious cache controller: %d states (%d stable), %d transitions",
					e.Name, mode.name, states, stable, trans)
			}
		}
	}
}

// TestBuiltinsVerify: every built-in generates non-stalling and passes a
// QuickConfig model-check. TSO-CC relaxes SWMR and the data-value
// invariant by design (stale Shared copies); its acquire fences tell the
// checker so, which then checks only deadlock freedom and quiescence —
// mirroring the paper's §VI-D treatment.
func TestBuiltinsVerify(t *testing.T) {
	for _, e := range protocols.All {
		spec, err := dsl.Parse(e.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", e.Name, err)
		}
		p, err := core.Generate(spec, core.NonStallingOpts())
		if err != nil {
			t.Fatalf("%s: generate: %v", e.Name, err)
		}
		r := verify.Check(p, verify.QuickConfig())
		t.Logf("%s: %v", e.Name, r)
		if !r.OK() {
			t.Errorf("%s: verification failed: %v", e.Name, r.Violations[0])
		}
		if !r.Complete {
			t.Errorf("%s: exploration capped at %d states", e.Name, r.States)
		}
	}
}
