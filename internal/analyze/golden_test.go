package analyze_test

import (
	"testing"
	"time"

	"protogen/internal/analyze"
	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/fuzz"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

var allModes = []string{"stalling", "nonstalling", "deferred"}

// TestRegistryLintsClean is the golden gate: every shipped protocol, at
// the spec layer and in all three generation modes, must produce zero
// error- and zero warning-severity diagnostics (info notes are part of
// the false-positive policy and allowed), and each full spec must lint
// in well under the 100ms budget — the analyzer never explores states.
func TestRegistryLintsClean(t *testing.T) {
	for _, e := range protocols.All {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			spec, err := dsl.Parse(e.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			start := time.Now()
			rep := analyze.CheckSpec(spec)
			if !rep.Clean() {
				t.Errorf("spec layer not clean:")
				logFindings(t, rep)
			}
			for _, mode := range allModes {
				opts, err := core.OptionsForMode(mode)
				if err != nil {
					t.Fatal(err)
				}
				p, err := core.Generate(spec, opts)
				if err != nil {
					t.Fatalf("generate %s: %v", mode, err)
				}
				prep := analyze.CheckProtocol(p, mode)
				if !prep.Clean() {
					t.Errorf("%s layer not clean:", mode)
					logFindings(t, prep)
				}
			}
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Errorf("linting %s took %v, budget is 100ms", e.Name, d)
			}
		})
	}
}

// classCodes maps a corpus failure class to the diagnostic codes that
// are consistent with it. The analyzer need not pinpoint the planted
// defect, but what it reports must fit the recorded failure mode.
var classCodes = map[string][]ir.Code{
	// Safety failures (SWMR / data-value): broken message vocabularies,
	// dead handshake halves, dropped payloads, miscounted invalidations.
	"safety": {ir.CodeMsgNeverSent, ir.CodeMsgNeverHandled, ir.CodeDeadTrigger,
		ir.CodeAckFanout, ir.CodeDroppedData, ir.CodeCoverageHole},
	// Liveness failures (deadlock): arms or awaits that cannot be
	// satisfied, fan-out the requestor waits on in vain.
	"liveness": {ir.CodeDeadArm, ir.CodeStuckAwait, ir.CodeMsgNeverSent,
		ir.CodeMsgNeverHandled, ir.CodeDeadTrigger, ir.CodeAckFanout},
	// Differential failures (one mode passes, another fails): the same
	// structural flow defects, surfaced mode-dependently.
	"differential": {ir.CodeMsgNeverSent, ir.CodeMsgNeverHandled, ir.CodeDeadTrigger,
		ir.CodeDeadArm, ir.CodeCoverageHole},
}

// sharpest records, per committed reproducer, the single code that
// names its planted defect; the table documents the defect ↔
// diagnostic correspondence and catches pass regressions early.
var sharpest = map[string]ir.Code{
	"FZ_MI_double_grant":     ir.CodeDeadTrigger,  // dir answers GetM at M from memory; Put path dead
	"FZ_MI_lost_writeback":   ir.CodeDroppedData,  // PutM's data is never written back
	"FZ_MOSI_silent":         ir.CodeMsgNeverSent, // evictions never announced
	"FZ_MSI_lost_writeback":  ir.CodeDeadTrigger,  // only writeback path is dead code
	"FZ_MSI_miscounted_acks": ir.CodeAckFanout,    // count(sharers) vs Inv-except-src
	"FZ_MSI_no_invalidate":   ir.CodeStuckAwait,   // Inv_Ack collection can never finish
}

// TestCorpusReproducersLintDirty asserts every committed corpus
// reproducer yields at least one diagnostic, and that at least one of
// its diagnostics is consistent with the recorded failure class.
func TestCorpusReproducersLintDirty(t *testing.T) {
	entries, err := fuzz.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries")
	}
	for _, ce := range entries {
		ce := ce
		t.Run(ce.Name, func(t *testing.T) {
			spec, err := dsl.Parse(ce.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			reports := []*analyze.Report{analyze.CheckSpec(spec)}
			for _, mode := range allModes {
				opts, err := core.OptionsForMode(mode)
				if err != nil {
					t.Fatal(err)
				}
				p, err := core.Generate(spec, opts)
				if err != nil {
					// A generation failure is itself a finding for a
					// reproducer; nothing more to lint in this mode.
					continue
				}
				reports = append(reports, analyze.CheckProtocol(p, mode))
			}
			total := 0
			seen := map[ir.Code]bool{}
			for _, r := range reports {
				total += len(r.Diags)
				for _, d := range r.Diags {
					seen[d.Code] = true
				}
			}
			if total == 0 {
				t.Fatal("reproducer produced zero diagnostics")
			}
			allowed, ok := classCodes[ce.Expect.Class]
			if !ok {
				t.Fatalf("no class mapping for %q — extend classCodes", ce.Expect.Class)
			}
			match := false
			for _, c := range allowed {
				if seen[c] {
					match = true
					break
				}
			}
			if !match {
				t.Errorf("no diagnostic consistent with class %q; saw %v", ce.Expect.Class, keys(seen))
			}
			if want, ok := sharpest[ce.Name]; ok && !seen[want] {
				t.Errorf("expected the defect-naming code %s; saw %v", want, keys(seen))
			}
		})
	}
}

func logFindings(t *testing.T, r *analyze.Report) {
	t.Helper()
	for _, d := range r.Diags {
		if d.Severity != analyze.SevInfo {
			t.Logf("  %s", d)
		}
	}
}

func keys(m map[ir.Code]bool) []ir.Code {
	out := make([]ir.Code, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	return out
}
