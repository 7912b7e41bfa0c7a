package main

import (
	"strings"
	"testing"
)

// TestRunCheapExperiments: every experiment but the fuzz campaign (its
// own test below) reproduces its artifact through the real CLI path at
// the default 2 caches — the paper-artifact smoke. An experiment whose
// claim fails returns an error, so a nil error is the verdict and the
// wanted string only shows the artifact was printed.
func TestRunCheapExperiments(t *testing.T) {
	cases := []struct {
		id   string
		want string
		slow bool // three or more model checks, or 50 000-step simulations
	}{
		{"table1", "Table I", false},
		{"table2", "Table II", false},
		{"table3-4", "Fwd_GetS -> [O_Fwd_GetS]", false},
		{"table5", "Table V", false},
		{"figure1", "SMAD + Inv", false},
		{"figure2", "ISDI: state set", false},
		{"table6", "Table VI", false},
		{"e-a", "primer diff: 62 identical cells", true},
		{"e-b", "MSI   non-stalling L=3: 19 states", true},
		{"e-c", "MSI_Unordered: 16466 states", false},
		{"e-d", "MP+acq  99 states, 3 outcomes, relaxed=[] forbidden=[]", false},
		{"e-e", "under one second", false},
		{"x-1", "contended          nonstalling  steps=50000", true},
		{"x-2", "L=0: 11 states", true},
		{"x-3", "deferred     prune=true : MSI: 10149 states", true},
	}
	for _, c := range cases {
		if c.slow && testing.Short() {
			continue
		}
		var out strings.Builder
		if err := runBG([]string{"experiments", "-run", c.id}, &out); err != nil {
			t.Errorf("-run %s: %v", c.id, err)
			continue
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("-run %s: output lacks %q:\n%s", c.id, c.want, out.String())
		}
	}
}

// TestRunFuzzExperiment: the differential campaign experiment passes at
// smoke scale.
func TestRunFuzzExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 16-seed campaign")
	}
	var out strings.Builder
	if err := runBG([]string{"experiments", "-run", "fuzz"}, &out); err != nil {
		t.Fatalf("fuzz experiment: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "16 pass, 0 fail") {
		t.Errorf("campaign summary missing:\n%s", s)
	}
	if !strings.Contains(s, "shrunk to") {
		t.Errorf("planted-bug demonstration missing:\n%s", s)
	}
}

// TestRunUnknownExperiment: an unknown -run name is an error naming it.
func TestRunUnknownExperiment(t *testing.T) {
	wantErr(t, []string{"experiments", "-run", "nope"}, `unknown experiment "nope"`)
}
