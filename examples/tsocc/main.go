// Command tsocc demonstrates TSO-CC (paper §VI-D): a consistency-directed protocol with no sharer
// tracking — Shared copies go stale, which TSO permits until an acquire.
// ProtoGen generates its concurrent form; the exhaustive litmus oracle
// stands in for the Banks et al. TSO verification. The demo's
// assertions are pinned by main_test.go, so this example doubles as a
// regression test for the §VI-D contract.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"protogen"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	eng := protogen.NewEngine()
	p, err := protogen.GenerateSource(protogen.BuiltinTSOCC, protogen.NonStalling())
	if err != nil {
		return err
	}
	cs, ct, _ := p.Cache.Counts()
	fmt.Fprintf(stdout, "generated TSO-CC: %d cache states, %d transitions\n\n", cs, ct)

	// Deadlock freedom via the model checker. TSO-CC has acquire fences,
	// so the checker does not hold it to SWMR or the data-value
	// invariant, which its stale Shared copies break by design.
	cfg := protogen.QuickVerifyConfig()
	res, err := eng.Verify(context.Background(), protogen.VerifyJob{Protocol: p, Config: &cfg})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "deadlock freedom:", res)
	if res.Verdict() != protogen.Pass {
		return fmt.Errorf("TSO-CC deadlock-freedom check did not pass: %s", res)
	}

	// Exhaustive mode: every schedule is enumerated, so an outcome that
	// is absent below is proven unreachable, not merely unsampled.
	fmt.Fprintln(stdout, "\nTSO litmus tests (every schedule, weak axiom):")
	cases := []struct {
		test      string
		wantRelax string // the relaxation that must be reachable ("" = none may be)
	}{
		{"MP", "t1.rd=0 t1.rf=1"}, // stale read: the TSO-CC relaxation
		{"MP+acq", ""},            // acquire restores ordering
		{"SB", "t0.ry=0 t1.rx=0"}, // TSO-allowed store-buffering outcome
		{"CoRR", ""},              // per-location SC always holds
	}
	names := make([]string, len(cases))
	for i, tc := range cases {
		names[i] = tc.test
	}
	rep, err := eng.Litmus(context.Background(), protogen.LitmusJob{
		Protocol: p, Tests: names, Exhaustive: true,
	})
	if err != nil {
		return err
	}
	for i, r := range rep.Results {
		fmt.Fprintf(stdout, "  %-6s %3d states, %d outcomes, relaxed=%v forbidden=%v\n",
			r.Test, r.States, len(r.Outcomes), r.Relaxed, r.Forbidden)
		if r.Failed() || !r.Complete {
			return fmt.Errorf("%s: forbidden=%v stuck=%v complete=%v err=%q — ordering broken",
				r.Test, r.Forbidden, r.Stuck, r.Complete, r.Err)
		}
		if want := cases[i].wantRelax; want == "" && len(r.Relaxed) > 0 {
			return fmt.Errorf("%s: relaxed outcome %v reachable despite synchronization", r.Test, r.Relaxed)
		} else if want != "" && !slices.Contains(r.Relaxed, want) {
			return fmt.Errorf("%s: expected the TSO-allowed relaxation {%s} to be reachable, got %v", r.Test, want, r.Relaxed)
		}
	}
	fmt.Fprintln(stdout, "\nSynchronized forbidden outcomes: absent. TSO-allowed relaxations: present.")
	return nil
}
