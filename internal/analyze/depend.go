package analyze

// The dependence pass surfaces the static rule-dependence analysis
// (internal/depend) — the analysis the checker's partial-order
// reduction is built on — as PG3xx diagnostics on the protocol layer.
// All findings are info severity by the one-sided-error policy: they
// never mean the protocol is wrong, only how reducible it is. PG301
// names each protocol-level fact that disables reduction outright,
// PG302 names each cache rule class pessimized to invariant-visible
// (with the classifier's reason), and PG303 is the one-line summary
// protogen lint -dep-stats serializes.

import (
	"fmt"

	"protogen/internal/depend"
	"protogen/internal/ir"
)

// passDependence reports the depend analysis of one generated protocol.
func passDependence(p *ir.Protocol, rep *Report) {
	a := depend.New(p)
	for _, fact := range a.Unsafe {
		rep.add(SevInfo, ir.CodeDependUnsafe, "", "",
			"partial-order reduction disabled for this protocol: %s", fact)
	}
	for _, c := range a.Classes {
		if c.Kind != ir.KindCache || c.StallOnly || !c.Vis.Visible {
			continue
		}
		rep.add(SevInfo, ir.CodeDependPessimized, machineLabel(c.Kind),
			fmt.Sprintf("state %s on %s", c.State, c.Ev),
			"invariant-visible (never fused): %s", c.Vis.Reason)
	}
	s := a.Stats
	rep.add(SevInfo, ir.CodeDependSummary, "", "",
		"dependence: %d rule classes (%d cache: %d invisible, %d fusible, %d pessimized), %d id vars, %d unsafe facts, independent pair fraction %.2f",
		s.Classes, s.CacheClasses, s.Invisible, s.Fusible, s.Visible,
		s.IDVars, s.UnsafeFacts, s.IndependentPairFrac)
}
