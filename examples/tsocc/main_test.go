package main

import (
	"strings"
	"testing"
)

// TestRun pins the §VI-D demo: every assertion the example makes
// (deadlock freedom, MP stale read reachable, MP+acq and CoRR proven
// clean, SB relaxation reachable) must keep holding — read from the
// exhaustive oracle's Relaxed/Forbidden lists, so "absent" is proven —
// and the narrative lines the README quotes must keep appearing.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("tsocc demo failed: %v\noutput so far:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"generated TSO-CC:",
		"deadlock freedom:",
		"TSO litmus tests",
		"MP      44 states, 2 outcomes, relaxed=[t1.rd=0 t1.rf=1] forbidden=[]",
		"MP+acq  99 states, 3 outcomes, relaxed=[] forbidden=[]",
		"SB      25 states, 1 outcomes, relaxed=[t0.ry=0 t1.rx=0] forbidden=[]",
		"CoRR    12 states, 1 outcomes, relaxed=[] forbidden=[]",
		"Synchronized forbidden outcomes: absent. TSO-allowed relaxations: present.",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output is missing %q:\n%s", want, got)
		}
	}
}
