package depend_test

import (
	"testing"

	"protogen/internal/core"
	"protogen/internal/depend"
	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

func genMSI(t *testing.T, mode string) *ir.Protocol {
	t.Helper()
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := core.OptionsForMode(mode)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func cls(t *testing.T, a *depend.Analysis, state, ev string) depend.Class {
	t.Helper()
	for _, c := range a.Classes {
		if c.Kind == ir.KindCache && string(c.State) == state && c.Ev.String() == ev {
			return c
		}
	}
	t.Fatalf("no cache class %q on %q", state, ev)
	return depend.Class{}
}

// TestMSIAnalysisFacts pins the load-bearing facts of the stalling-MSI
// analysis: the protocol is id-safe, stable-state hit classes are
// fusible, and — the regression that motivated collecting footprints
// BEFORE visibility early-returns — store-completing Data/Inv_Ack
// deliveries are never fusible even though their visibility verdict
// (maybe-ambiguous-guards) is decided before the footprint checks.
func TestMSIAnalysisFacts(t *testing.T) {
	a := depend.New(genMSI(t, "stalling"))
	if !a.Safe() {
		t.Fatalf("MSI analysis not id-safe: %v", a.Unsafe)
	}
	if len(a.CacheIDVars) != 0 {
		t.Errorf("cache id vars = %v, want none", a.CacheIDVars)
	}
	if len(a.DirIDVars) != 1 || a.DirIDVars[0] != "owner" {
		t.Errorf("dir id vars = %v, want [owner]", a.DirIDVars)
	}

	for _, tc := range []struct {
		state, ev string
		fusible   bool
		performs  bool
	}{
		// Stable hit loads: monotone (state unchanged, load lands in a
		// checked state), so they fuse.
		{"S", "load", true, true},
		{"M", "load", true, true},
		// Stores write the last-write register: never fused.
		{"M", "store", false, true},
		// A load-completing Data delivery lands in S (checked): fusible.
		{"ISD", "Data", true, true},
		// Store-completing deliveries (pending-store states): the class
		// performs on at least one alternative and must never fuse,
		// regardless of its visibility verdict.
		{"IMAD", "Data", false, true},
		{"IMA", "Inv_Ack", false, true},
		{"SMAD", "Data", false, true},
		{"SMA", "Inv_Ack", false, true},
		// Put_Ack at SIA/MIA completes the pending replacement epoch
		// and performs; the landing state I is unchecked.
		{"SIA", "Put_Ack", false, true},
		{"MIA", "Put_Ack", false, true},
	} {
		c := cls(t, a, tc.state, tc.ev)
		if c.Fusible != tc.fusible || c.Foot.Performs != tc.performs {
			t.Errorf("cache %s on %s: fusible=%v performs=%v, want %v/%v (vis %q)",
				tc.state, tc.ev, c.Fusible, c.Foot.Performs, tc.fusible, tc.performs, c.Vis.Reason)
		}
	}
}

// TestPendingAccesses checks the pending-access fixpoint on stalling
// MSI: transient states downstream of a non-performing store issue are
// pendStore, load-transaction states are pendLoad, stable states are
// neither.
func TestPendingAccesses(t *testing.T) {
	pend := depend.PendingsForTest(genMSI(t, "stalling"))
	for _, tc := range []struct {
		state               string
		pendLoad, pendStore bool
	}{
		{"I", false, false},
		{"S", false, false},
		{"M", false, false},
		{"ISD", true, false},
		{"IMAD", false, true},
		{"IMA", false, true},
		{"SMAD", false, true},
		{"SMA", false, true},
	} {
		got, ok := pend[tc.state]
		if !ok {
			t.Fatalf("state %s not indexed", tc.state)
		}
		if got[0] != tc.pendLoad || got[1] != tc.pendStore {
			t.Errorf("%s: pendLoad=%v pendStore=%v, want %v/%v",
				tc.state, got[0], got[1], tc.pendLoad, tc.pendStore)
		}
	}
}

// TestRefSends: the only two ways a stored node reference becomes a
// message are the directory's owner forwards and sharer invalidations.
func TestRefSends(t *testing.T) {
	p := genMSI(t, "stalling")
	a := depend.New(p)
	wantOwner := map[string]bool{"Fwd_GetS": true, "Fwd_GetM": true}
	wantSharer := map[string]bool{"Inv": true}
	for i := range p.Msgs {
		name := string(p.Msgs[i].Type)
		if a.OwnerSends[i] != wantOwner[name] {
			t.Errorf("OwnerSends[%s] = %v, want %v", name, a.OwnerSends[i], wantOwner[name])
		}
		if a.SharerSends[i] != wantSharer[name] {
			t.Errorf("SharerSends[%s] = %v, want %v", name, a.SharerSends[i], wantSharer[name])
		}
	}
}

// TestMSIStats pins the summary the PG303 diagnostic and protogen lint
// -dep-stats render for stalling MSI. Fusible must be a superset of
// invisible, and any drift in these numbers is a change to the
// analysis itself.
func TestMSIStats(t *testing.T) {
	a := depend.New(genMSI(t, "stalling"))
	s := a.Stats
	if s.Classes != 47 || s.CacheClasses != 34 || s.Invisible != 15 || s.Visible != 19 ||
		s.Fusible != 20 || s.IDVars != 1 || s.UnsafeFacts != 0 {
		t.Errorf("stats drifted: %+v", s)
	}
	if s.Fusible < s.Invisible {
		t.Errorf("fusible (%d) must be a superset of invisible (%d)", s.Fusible, s.Invisible)
	}
	if s.IndependentPairFrac <= 0 || s.IndependentPairFrac >= 1 {
		t.Errorf("independent pair fraction %v out of (0,1)", s.IndependentPairFrac)
	}
	if s.Reasons["maybe-ambiguous-guards"] == 0 || s.Reasons["performs-access"] == 0 {
		t.Errorf("expected pessimization reasons missing: %v", s.Reasons)
	}
}

// TestRegistryAllSafe: every registry protocol in every mode passes the
// id-flow analysis — reduction is never statically refused on shipped
// protocols (the fuzz corpus is where refusals appear) — and always
// has at least one fusible class.
func TestRegistryAllSafe(t *testing.T) {
	for _, e := range protocols.All {
		for _, mode := range []string{"stalling", "nonstalling", "deferred"} {
			spec, err := dsl.Parse(e.Source)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := core.OptionsForMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.Generate(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			a := depend.New(p)
			if !a.Safe() {
				t.Errorf("%s %s: unsafe: %v", e.Name, mode, a.Unsafe)
			}
			if a.Stats.Fusible == 0 {
				t.Errorf("%s %s: no fusible classes at all", e.Name, mode)
			}
		}
	}
}
