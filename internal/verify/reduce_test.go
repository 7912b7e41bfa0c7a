package verify

import (
	"sort"
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/engine"
	"protogen/internal/protocols"
)

// reduceModes: every generation mode the ablation sweeps.
var reduceModes = []string{"stalling", "nonstalling", "deferred"}

func optsForMode(t *testing.T, mode string) core.Options {
	t.Helper()
	o, err := core.OptionsForMode(mode)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func violationKinds(r *Result) string {
	kinds := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		kinds = append(kinds, v.Kind)
	}
	sort.Strings(kinds)
	return strings.Join(kinds, ",")
}

// TestReducedMatchesFullVerdicts is the partial-order-reduction
// acceptance gate: across the registry × 3 generation modes ×
// parallelism 1/2/4 × exact+fingerprint, the reduced exploration must
// report the same verdicts (violations and liveness) as the full one,
// and its own States/Edges/Depth must be bit-identical across every
// parallelism and visited-store mode.
func TestReducedMatchesFullVerdicts(t *testing.T) {
	anyReduced := false
	for _, e := range protocols.All {
		for _, mode := range reduceModes {
			p := gen(t, e.Source, optsForMode(t, mode))
			full := Check(p, QuickConfig())
			var pin *Result
			for _, par := range []int{1, 2, 4} {
				for _, fp := range []bool{false, true} {
					cfg := QuickConfig()
					cfg.Reduce = true
					cfg.Parallelism = par
					cfg.Fingerprint = fp
					red := Check(p, cfg)
					if red.OK() != full.OK() || violationKinds(red) != violationKinds(full) ||
						red.Complete != full.Complete {
						t.Errorf("%s %s P=%d fp=%t: reduced verdict %v, full %v",
							e.Name, mode, par, fp, red, full)
					}
					if len(red.ReduceUnsafe) > 0 {
						t.Errorf("%s %s: reduction refused: %v", e.Name, mode, red.ReduceUnsafe)
					}
					if pin == nil {
						pin = red
						t.Logf("%s %s: full %d/%d, reduced %d/%d (succs %d/%d, %d fused, %d reduced states)",
							e.Name, mode, full.States, full.Edges, red.States, red.Edges,
							red.EmittedSuccs, red.CandidateSuccs, red.FusedSteps, red.ReducedStates)
					} else if red.States != pin.States || red.Edges != pin.Edges || red.Depth != pin.Depth {
						t.Errorf("%s %s P=%d fp=%t: reduced %d/%d/%d, want deterministic %d/%d/%d",
							e.Name, mode, par, fp, red.States, red.Edges, red.Depth,
							pin.States, pin.Edges, pin.Depth)
					}
					if red.States > full.States {
						t.Errorf("%s %s: reduced explored MORE states (%d) than full (%d)",
							e.Name, mode, red.States, full.States)
					}
					if red.FusedSteps > 0 {
						anyReduced = true
					}
				}
			}
		}
	}
	if !anyReduced {
		t.Error("reduction never fired on any registry protocol")
	}
}

// reducedGolden pins the reduced exploration's exact {States, Edges}
// per registry protocol × generation mode at the sweep configuration
// (QuickConfig: 2 caches, exact visited set, P=1). The reduction is
// deterministic by design, so any drift here is a semantic change to
// the collapse (or to the depend fusibility tables) and must be
// re-reviewed for soundness — not just re-pinned.
var reducedGolden = map[string][2]int{
	"MSI/stalling":              {4929, 13202},
	"MSI/nonstalling":           {9741, 26933},
	"MSI/deferred":              {8047, 20915},
	"MESI/stalling":             {5292, 14232},
	"MESI/nonstalling":          {9937, 26656},
	"MESI/deferred":             {8905, 22956},
	"MOSI/stalling":             {8157, 21922},
	"MOSI/nonstalling":          {12515, 34745},
	"MOSI/deferred":             {10517, 27651},
	"MSI_Upgrade/stalling":      {5229, 13922},
	"MSI_Upgrade/nonstalling":   {10109, 27779},
	"MSI_Upgrade/deferred":      {8415, 21761},
	"MSI_Unordered/stalling":    {6273, 16282},
	"MSI_Unordered/nonstalling": {13941, 36168},
	"MSI_Unordered/deferred":    {13941, 36168},
	"TSO_CC/stalling":           {1034, 2976},
	"TSO_CC/nonstalling":        {1494, 4220},
	"TSO_CC/deferred":           {1494, 4220},
}

// TestReducedGoldenCounts holds the reduced state graph to the pinned
// golden counts — the anchor the protogen verify -reduce CI smoke leans on,
// and, with TestSeedBaselinePinned's full counts, what fixes every
// reduction ratio (stalling MSI: 8180 / 4929 = 1.66x).
func TestReducedGoldenCounts(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range protocols.All {
		for _, mode := range reduceModes {
			key := e.Name + "/" + mode
			want, ok := reducedGolden[key]
			if !ok {
				t.Errorf("%s: no golden entry — new registry protocol? record its reduced counts", key)
				continue
			}
			seen[key] = true
			p := gen(t, e.Source, optsForMode(t, mode))
			cfg := QuickConfig()
			cfg.Reduce = true
			red := Check(p, cfg)
			if red.States != want[0] || red.Edges != want[1] {
				t.Errorf("%s: reduced %d states / %d edges, golden %d/%d",
					key, red.States, red.Edges, want[0], want[1])
			}
		}
	}
	for key := range reducedGolden {
		if !seen[key] {
			t.Errorf("golden entry %s matches no registry protocol — stale?", key)
		}
	}
}

// TestReduction4CacheAcceptance pins the headline reduction number: on
// a 4-cache TSO-CC family the collapse must cut the state space by at
// least 2x. The exact counts are pinned too — both explorations are
// deterministic — so the ratio cannot silently erode. (At 2 values the
// same family measures 6.45x: 1,059,851 full vs 164,223 reduced; too
// slow for every CI run, noted here and in docs/PERFORMANCE.md.)
func TestReduction4CacheAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("4-cache sweep is a few seconds; skipped under -short")
	}
	p := gen(t, protocols.TSOCC, optsForMode(t, "stalling"))
	cfg := QuickConfig()
	cfg.Caches = 4
	cfg.Capacity = 3
	cfg.Values = 1
	cfg.Parallelism = 4
	cfg.MaxStates = 2_000_000
	full := Check(p, cfg)
	cfg.Reduce = true
	red := Check(p, cfg)
	if !full.OK() || !full.Complete || !red.OK() || !red.Complete {
		t.Fatalf("full %v, reduced %v", full, red)
	}
	if full.States != 56218 || red.States != 15686 {
		t.Errorf("4-cache TSO_CC: full %d / reduced %d states, golden 56218/15686",
			full.States, red.States)
	}
	if ratio := float64(full.States) / float64(red.States); ratio < 2.0 {
		t.Errorf("4-cache reduction ratio %.2fx, acceptance floor is 2x", ratio)
	}
}

// TestCommuteAuditRegistryClean runs the runtime commutation audit over
// the registry × 3 modes and requires zero discrepancies: every fused
// rule valuation-monotone, every sampled (fused, deferred) pair
// commuting in both orders. This is the machine check of the static
// independence relation the reduction trusts.
func TestCommuteAuditRegistryClean(t *testing.T) {
	audited := int64(0)
	for _, e := range protocols.All {
		for _, mode := range reduceModes {
			p := gen(t, e.Source, optsForMode(t, mode))
			cfg := QuickConfig()
			cfg.Reduce = true
			cfg.CommuteAudit = true
			cfg.Parallelism = 4
			res := Check(p, cfg)
			if res.CommuteMismatches != 0 {
				t.Errorf("%s %s: %d commute mismatches", e.Name, mode, res.CommuteMismatches)
			}
			for _, v := range res.Violations {
				if v.Kind == "por-audit" {
					t.Errorf("%s %s: audit violation: %s", e.Name, mode, v.Detail)
				}
			}
			audited += res.CommutePairs
		}
	}
	if audited == 0 {
		t.Error("commutation audit never sampled a pair across the whole registry")
	}
}

// TestCommuteAuditCatchesCorruptFusion is the mutation test for the
// audit itself: with the static fusibility check disabled (fusing
// whatever rules are enabled, monotone or not), the runtime audit must
// detect the corruption on the stalling MSI as a hard por-audit
// violation. If it does not, the audit is vacuous and the differential
// closure proves nothing.
func TestCommuteAuditCatchesCorruptFusion(t *testing.T) {
	testCorruptFusion = true
	defer func() { testCorruptFusion = false }()
	p := gen(t, protocols.MSI, optsForMode(t, "stalling"))
	cfg := QuickConfig()
	cfg.Reduce = true
	cfg.CommuteAudit = true
	cfg.MaxViolations = 8
	res := Check(p, cfg)
	found := false
	for _, v := range res.Violations {
		if v.Kind == "por-audit" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("corrupted fusion not caught by the commutation audit: %v", res)
	}
}

// TestHeadroomCountsEmptyQueues: every queue needs the fusion margin free,
// the empty ones included. With Capacity 1 and the ordered margin of 2 no
// queue can ever have it, so nothing may fuse even while nothing is in
// flight — the case a walk over the occupied queues alone would start
// fusing in, moving the reduced counts.
func TestHeadroomCountsEmptyQueues(t *testing.T) {
	red := &reducer{ordMargin: 2, bagMargin: 5}
	msg := engine.Msg{Type: "GetS", Src: 0, Dst: 2, Req: engine.NoID}
	for _, tc := range []struct {
		name           string
		ordered        bool
		capacity, sent int
		want           bool
	}{
		{"ordered, capacity 1, empty", true, 1, 0, false},
		{"ordered, capacity 2, empty", true, 2, 0, true},
		{"ordered, capacity 2, one queued", true, 2, 1, false},
		{"ordered, capacity 3, one queued", true, 3, 1, true},
		// A bag holds Capacity·Nodes² = 9 per unit of capacity here.
		{"bag, capacity 1, four queued", false, 1, 4, true},
		{"bag, capacity 1, five queued", false, 1, 5, false},
	} {
		net := engine.NewNetwork(tc.ordered, 3, tc.capacity)
		for i := 0; i < tc.sent; i++ {
			if err := net.Send(msg); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if got := red.headroom(net); got != tc.want {
			t.Errorf("%s: headroom = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The bag margin can exceed a bag's limit too.
	if red := (&reducer{bagMargin: 10}); red.headroom(engine.NewNetwork(false, 3, 1)) {
		t.Error("bag margin 10 over a limit of 9: headroom on an empty network, want none")
	}
}
