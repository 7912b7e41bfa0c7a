package verify

import (
	"fmt"
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/engine"
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

// TestMSINonStalling2Caches: the flagship check — the generated
// non-stalling MSI (Table VI) is safe and deadlock-free with 2 caches.
func TestMSINonStalling2Caches(t *testing.T) {
	p := gen(t, protocols.MSI, core.NonStallingOpts())
	r := Check(p, QuickConfig())
	t.Log(r)
	if !r.OK() {
		t.Fatalf("verification failed: %v\ntrace: %v", r.Violations[0], r.Violations[0].Trace)
	}
	if !r.Complete {
		t.Fatalf("state space not fully explored (%d states)", r.States)
	}
	if r.States < 100 {
		t.Fatalf("suspiciously small state space: %d", r.States)
	}
}

// TestMSIStalling2Caches: the stalling variant too.
func TestMSIStalling2Caches(t *testing.T) {
	p := gen(t, protocols.MSI, core.StallingOpts())
	r := Check(p, QuickConfig())
	t.Log(r)
	if !r.OK() {
		t.Fatalf("verification failed: %v\ntrace: %v", r.Violations[0], r.Violations[0].Trace)
	}
}

// TestMSIDeferred2Caches: deferred-response mode preserves the invariants.
func TestMSIDeferred2Caches(t *testing.T) {
	p := gen(t, protocols.MSI, core.DeferredOpts())
	r := Check(p, QuickConfig())
	t.Log(r)
	if !r.OK() {
		t.Fatalf("verification failed: %v\ntrace: %v", r.Violations[0], r.Violations[0].Trace)
	}
}

// TestBrokenProtocolCaught: sabotage MSI (directory forgets to invalidate
// sharers on a GetM) and the checker must find an SWMR or data violation.
func TestBrokenProtocolCaught(t *testing.T) {
	broken := strings.Replace(protocols.MSI,
		"send Inv to sharers except src req src;\n    owner = src;",
		"owner = src;", 1)
	if broken == protocols.MSI {
		t.Fatal("sabotage substitution failed")
	}
	spec, err := dsl.Parse(broken)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.StallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig()
	cfg.CheckLiveness = false
	r := Check(p, cfg)
	t.Log(r)
	if r.OK() {
		t.Fatalf("the sabotaged protocol must fail verification")
	}
}

// TestBrokenAckCountCaught: sabotage the ack count (off by the requestor)
// and the checker must find the stuck transaction or a value violation.
func TestBrokenAckCountCaught(t *testing.T) {
	broken := strings.Replace(protocols.MSI,
		"send Data to src with data acks count(sharers except src);",
		"send Data to src with data acks count(sharers);", 1)
	if broken == protocols.MSI {
		t.Fatal("sabotage substitution failed")
	}
	spec, err := dsl.Parse(broken)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.StallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := Check(p, QuickConfig())
	t.Log(r)
	if r.OK() {
		t.Fatalf("the sabotaged ack count must fail verification")
	}
}

// TestLivenessCountsAllStuckStates: the stuck violation reports how many
// states cannot reach quiescence, not just the first one found, and the
// witness trace still leads to the first stuck state.
func TestLivenessCountsAllStuckStates(t *testing.T) {
	c := &checker{cfg: Config{CheckLiveness: true}, res: &Result{}}
	c.init = engine.NewSystem(goldenProtocol(t, "MSI", "stalling"), engine.Config{Caches: 2, Capacity: 4, Values: 2})
	// 0 -> {1, 3}, 1 -> {2}, 2 -> {2} (quiescent), 3 -> {4}, 4 -> {3}:
	// the 3/4 cycle is a livelock — two states stuck out of five. State 3
	// hangs off the initial state by that state's rule 1, every other
	// state off its parent by rule 0.
	// The drain pointers send 0 into the cycle and 1 to quiescence, so the
	// drain walk proves 1 good and leaves 0, 3 and 4 open, which are the
	// states, each once, that settling them must expand.
	c.parent = []int32{-1, 0, 1, 0, 3}
	c.edgeEnd = []uint32{0, 1, 2, 3, 4}
	c.edges = []uint32{0, 0, 1, 0}
	c.quiet = []bool{false, false, true, false, false}
	c.drain = []int32{3, 2, -1, 4, 3}
	graph := [][]int32{{1, 3}, {2}, {2}, {4}, {3}}
	var expanded []int32
	c.livenessCheck(func(s int32, out []int32) []int32 {
		expanded = append(expanded, s)
		return append(out, graph[s]...)
	})
	if fmt.Sprint(expanded) != "[0 3 4]" {
		t.Errorf("expanded %v, want the open states [0 3 4] once each", expanded)
	}
	if len(c.res.Violations) != 1 {
		t.Fatalf("expected one stuck violation, got %v", c.res.Violations)
	}
	v := c.res.Violations[0]
	if v.Kind != "stuck" {
		t.Fatalf("kind = %q", v.Kind)
	}
	if !strings.Contains(v.Detail, "2 of 5 states") {
		t.Errorf("detail must count the stuck states: %q", v.Detail)
	}
	if want := c.init.Rules()[1].String(); len(v.Trace) != 1 || v.Trace[0] != want {
		t.Errorf("trace must witness the first stuck state by replaying %q: %v", want, v.Trace)
	}
}

// TestViolationTraces: violations carry a replayable trace.
func TestViolationTraces(t *testing.T) {
	broken := strings.Replace(protocols.MSI,
		"send Inv to sharers except src req src;\n    owner = src;",
		"owner = src;", 1)
	spec, _ := dsl.Parse(broken)
	p, err := core.Generate(spec, core.StallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig()
	cfg.CheckLiveness = false
	r := Check(p, cfg)
	if r.OK() {
		t.Fatal("expected violation")
	}
	v := r.Violations[0]
	if len(v.Trace) == 0 {
		t.Fatalf("violation must carry a trace")
	}
}

// TestUpgradeProtocol: the Upgrade protocol with reinterpretation verifies.
func TestUpgradeProtocol(t *testing.T) {
	p := gen(t, protocols.MSIUpgrade, core.NonStallingOpts())
	r := Check(p, QuickConfig())
	t.Log(r)
	if !r.OK() {
		t.Fatalf("verification failed: %v\ntrace: %v", r.Violations[0], r.Violations[0].Trace)
	}
}

// TestUnorderedMSI: the handshake protocol verifies on an unordered
// network (where the plain MSI would be unsound).
func TestUnorderedMSI(t *testing.T) {
	p := gen(t, protocols.MSIUnordered, core.NonStallingOpts())
	r := Check(p, QuickConfig())
	t.Log(r)
	if !r.OK() {
		t.Fatalf("verification failed: %v\ntrace: %v", r.Violations[0], r.Violations[0].Trace)
	}
}

// TestTSOCCDeadlockFree: TSO-CC breaks SWMR by design (stale Shared
// copies) and has acquire fences, so at the default configuration the
// checker holds it to deadlock freedom and quiescence only; TSO itself
// is checked by the litmus tests in internal/litmus.
func TestTSOCCDeadlockFree(t *testing.T) {
	p := gen(t, protocols.TSOCC, core.NonStallingOpts())
	r := Check(p, QuickConfig())
	t.Log(r)
	if !r.OK() {
		t.Fatalf("verification failed: %v\ntrace: %v", r.Violations[0], r.Violations[0].Trace)
	}
}

// TestTSOCCBreaksSWMRVisibly: the checker exempts TSO-CC from SWMR and
// data-value because of its acquire fences, not because the protocol is
// secretly coherent. Held to both, over the same reachable space, TSO-CC
// must break both — evidence the checker distinguishes consistency
// classes rather than passing everything.
func TestTSOCCBreaksSWMRVisibly(t *testing.T) {
	p := gen(t, protocols.TSOCC, core.NonStallingOpts())
	cfg := QuickConfig()
	cfg.CheckLiveness = false
	r := Check(p, cfg)
	t.Log(r)
	if !r.OK() {
		t.Fatalf("TSO-CC must pass the checker, which holds it to no SWMR: %v", r.Violations[0])
	}
	if got := joinKinds(refExplore(p, cfg, true).kinds); got != "SWMR,data-value" {
		t.Fatalf("TSO-CC held to SWMR and data-value finds %q, want both broken by design", got)
	}
}

// TestValueDomainThree: a larger rotating value domain must not change
// the verdict (value aliasing robustness).
func TestValueDomainThree(t *testing.T) {
	p := gen(t, protocols.MSI, core.NonStallingOpts())
	cfg := QuickConfig()
	cfg.Values = 3
	cfg.CheckLiveness = false
	r := Check(p, cfg)
	t.Log(r)
	if !r.OK() {
		t.Fatalf("values=3: %v", r.Violations[0])
	}
}

// TestSymmetryAgreement: symmetry reduction must not change the verdict,
// only the state count (which shrinks by up to the number of cache
// permutations).
func TestSymmetryAgreement(t *testing.T) {
	p := gen(t, protocols.MSI, core.NonStallingOpts())
	on := QuickConfig()
	on.CheckLiveness = false
	off := on
	off.Symmetry = false
	ron := Check(p, on)
	roff := Check(p, off)
	t.Logf("symmetry on: %d states; off: %d states", ron.States, roff.States)
	if !ron.OK() || !roff.OK() {
		t.Fatalf("verdicts differ or fail: %v / %v", ron, roff)
	}
	if ron.States >= roff.States {
		t.Errorf("symmetry reduction must shrink the space: %d vs %d", ron.States, roff.States)
	}
	if roff.States > ron.States*2 {
		t.Errorf("2-cache reduction factor cannot exceed 2: %d vs %d", roff.States, ron.States)
	}
}

// TestVerdict: PASS needs a complete run with no violation. A run a
// bound stopped is INCOMPLETE and names the bound, and a violation is
// FAIL whether or not the run completed.
func TestVerdict(t *testing.T) {
	p := goldenProtocol(t, "MSI", "nonstalling")
	cfg := QuickConfig()
	cfg.Parallelism = 1
	if r := Check(p, cfg); r.Verdict() != Pass || r.Bound() != "" || !strings.HasSuffix(r.String(), " — PASS") {
		t.Errorf("complete run: %v (verdict %v)", r, r.Verdict())
	}
	cfg.MaxStates = 500
	r := Check(p, cfg)
	if r.Verdict() != Incomplete || r.Bound() != "capped" || !strings.HasSuffix(r.String(), "(capped) — INCOMPLETE") {
		t.Errorf("capped run: %v (verdict %v, bound %q)", r, r.Verdict(), r.Bound())
	}
	r.Violations = []Violation{{Kind: "SWMR", Detail: "2 writers, 0 readers"}}
	if r.Verdict() != Fail || !strings.Contains(r.String(), "(capped) — FAIL: SWMR") {
		t.Errorf("capped run with a violation: %v (verdict %v)", r, r.Verdict())
	}
	canceled := &Result{Protocol: "MSI", Canceled: true}
	if canceled.Verdict() != Incomplete || !strings.HasSuffix(canceled.String(), "(canceled) — INCOMPLETE") {
		t.Errorf("canceled run: %v (verdict %v)", canceled, canceled.Verdict())
	}
}
