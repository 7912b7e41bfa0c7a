package core

import (
	"strings"
	"testing"

	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

func genProtocol(t *testing.T, src string, opts Options) *ir.Protocol {
	t.Helper()
	spec, err := dsl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Generate(spec, opts)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return p
}

// TestGenerateAllBuiltins: every built-in SSP generates and validates in
// both stalling and non-stalling modes.
func TestGenerateAllBuiltins(t *testing.T) {
	for _, e := range protocols.All {
		for _, opts := range []Options{NonStallingOpts(), StallingOpts(), DeferredOpts()} {
			p := genProtocol(t, e.Source, opts)
			if err := ir.ValidateProtocol(p); err != nil {
				t.Errorf("%s (%s): %v", e.Name, opts.Note(), err)
			}
		}
	}
}

// TestMOSIRenaming reproduces paper Tables III/IV: the MOSI SSP written
// with Fwd_GetS arriving at both M and O gets the O copy renamed.
func TestMOSIRenaming(t *testing.T) {
	p := genProtocol(t, protocols.MOSI, NonStallingOpts())
	if len(p.Renames) != 2 {
		t.Errorf("renames = %v, want exactly Fwd_GetS and Fwd_GetM", p.Renames)
	}
	if got := p.Renames["Fwd_GetS"]; len(got) != 1 || got[0] != "O_Fwd_GetS" {
		t.Errorf("Fwd_GetS renames = %v, want [O_Fwd_GetS] (Table IV)", got)
	}
	if got := p.Renames["Fwd_GetM"]; len(got) != 1 || got[0] != "O_Fwd_GetM" {
		t.Errorf("Fwd_GetM renames = %v, want [O_Fwd_GetM]", got)
	}
	// The renamed message must be declared and used: O+O_Fwd_GetS stays O.
	if _, ok := p.MsgDeclOf("O_Fwd_GetS"); !ok {
		t.Fatalf("O_Fwd_GetS not declared")
	}
	trs := p.Cache.Find("O", ir.MsgEvent("O_Fwd_GetS"))
	if len(trs) != 1 || trs[0].Next != "O" {
		t.Errorf("O+O_Fwd_GetS = %v, want data response staying in O", trs)
	}
	// M keeps the original name.
	if len(p.Cache.Find("M", ir.MsgEvent("Fwd_GetS"))) != 1 {
		t.Errorf("M must keep the original Fwd_GetS")
	}
	// M also carries a late-Case-1 handler for O_Fwd_GetS: an upgrade's
	// Ack_Count response can overtake an earlier-ordered O_Fwd_GetS on
	// the forward network, so the forward may arrive after the upgrade
	// completed. It must answer with data and stay in M.
	late := p.Cache.Find("M", ir.MsgEvent("O_Fwd_GetS"))
	if len(late) != 1 || late[0].Next != "M" || !strings.Contains(late[0].Note, "late case 1") {
		t.Errorf("M must carry the late-case-1 O_Fwd_GetS handler, got %v", late)
	}
}

// TestMOSICase1SelfLoop: an owner upgrading (O -> M) that receives
// O_Fwd_GetS lost the race; it must answer with data and keep waiting in
// the same state (the O -> O restart).
func TestMOSICase1SelfLoop(t *testing.T) {
	p := genProtocol(t, protocols.MOSI, NonStallingOpts())
	// Find the O->M root transient.
	var omRoot ir.StateName
	for _, n := range p.Cache.Order {
		st := p.Cache.State(n)
		if st.Kind == ir.Transient && st.Origin == "O" && st.Target == "M" && len(st.Chain) == 0 && !st.RespSeen {
			omRoot = n
			break
		}
	}
	if omRoot == "" {
		t.Fatalf("no O->M root transient found")
	}
	trs := p.Cache.Find(omRoot, ir.MsgEvent("O_Fwd_GetS"))
	if len(trs) != 1 {
		t.Fatalf("%s+O_Fwd_GetS: %d transitions", omRoot, len(trs))
	}
	if trs[0].Next != omRoot {
		t.Errorf("%s+O_Fwd_GetS must self-loop (O->O restart), got %s", omRoot, trs[0].Next)
	}
	if trs[0].Stall {
		t.Errorf("case 1 must never stall")
	}
	// And O_Fwd_GetM demotes to the I->M root.
	trs = p.Cache.Find(omRoot, ir.MsgEvent("O_Fwd_GetM"))
	if len(trs) != 1 || p.Cache.State(trs[0].Next).Origin != "I" {
		t.Errorf("%s+O_Fwd_GetM must restart from I", omRoot)
	}
}

// TestMOSIPendingChain: repeated O_Fwd_GetS absorption at an O-origin
// transient grows the chain up to L, then stalls.
func TestMOSIPendingChain(t *testing.T) {
	opts := NonStallingOpts()
	opts.PendingLimit = 2
	p := genProtocol(t, protocols.MOSI, opts)
	// Find a state with a 2-long chain ending in O (absorbed two GetS).
	foundStall := false
	for _, tr := range p.Cache.Trans {
		st := p.Cache.State(tr.From)
		if st == nil || len(st.Chain) != 2 {
			continue
		}
		if tr.Ev.Kind == ir.EvMsg && tr.Stall {
			foundStall = true
		}
	}
	if !foundStall {
		t.Errorf("L=2: chains of length 2 must stall further absorptions")
	}
}

// TestMESIClasses: E and M form one directory-visible class via the
// silent E->M upgrade; no renaming is needed.
func TestMESIClasses(t *testing.T) {
	p := genProtocol(t, protocols.MESI, NonStallingOpts())
	if p.ClassOf("E") != p.ClassOf("M") {
		t.Errorf("E and M must share a class, got %s vs %s", p.ClassOf("E"), p.ClassOf("M"))
	}
	if p.ClassOf("S") == p.ClassOf("M") || p.ClassOf("I") == p.ClassOf("M") {
		t.Errorf("S/I must not join the E/M class")
	}
	if len(p.Renames) != 0 {
		t.Errorf("MESI needs no renaming, got %v", p.Renames)
	}
	// The silent transition appears as a local hit.
	trs := p.Cache.Find("E", ir.AccessEvent(ir.AccessStore))
	if len(trs) != 1 || trs[0].Next != "M" {
		t.Fatalf("E+store = %v, want silent hit to M", trs)
	}
	for _, a := range trs[0].Actions {
		if a.Op == ir.ASend {
			t.Errorf("E+store must send nothing")
		}
	}
}

// TestMESIDualRoute: IS^D can complete to S or E; absorbing a Fwd_GetS in
// IS^D proves the exclusive route and prunes the shared one.
func TestMESIDualRoute(t *testing.T) {
	p := genProtocol(t, protocols.MESI, NonStallingOpts())
	isd := p.Cache.State("ISD")
	if isd == nil {
		t.Fatalf("no ISD state; states: %v", ir.SortedStateNames(p.Cache))
	}
	if len(isd.StateSet) != 3 {
		t.Errorf("ISD state set = %v, want {I, S, EM-class}", isd.StateSet)
	}
	trs := p.Cache.Find("ISD", ir.MsgEvent("Fwd_GetS"))
	if len(trs) != 1 {
		t.Fatalf("ISD+Fwd_GetS: %d transitions", len(trs))
	}
	derived := p.Cache.State(trs[0].Next)
	if derived == nil || len(derived.Chain) != 1 || derived.Chain[0] != "S" {
		t.Fatalf("ISD+Fwd_GetS derived state wrong: %+v", derived)
	}
	// The derived state must await ExcData only (Data route pruned).
	if len(p.Cache.Find(derived.Name, ir.MsgEvent("ExcData"))) != 1 {
		t.Errorf("%s must await ExcData", derived.Name)
	}
	for _, tr := range p.Cache.Find(derived.Name, ir.MsgEvent("Data")) {
		if !tr.Stall && !tr.Stale {
			t.Errorf("%s must not complete via shared Data: %s", derived.Name, tr.CellString())
		}
	}
}

// TestUpgradeReinterpretation reproduces §V-D1's Upgrade discussion.
func TestUpgradeReinterpretation(t *testing.T) {
	p := genProtocol(t, protocols.MSIUpgrade, NonStallingOpts())
	if p.Reinterpret["Upgrade"] != "GetM" {
		t.Fatalf("Upgrade must be reinterpreted as GetM, got %v", p.Reinterpret)
	}
	// The directory must handle Upgrade at I and M via the GetM copies.
	for _, s := range []ir.StateName{"I", "M"} {
		trs := p.Dir.Find(s, ir.MsgEvent("Upgrade"))
		if len(trs) == 0 {
			t.Errorf("directory %s+Upgrade missing (reinterpretation)", s)
		}
	}
	// At S both guarded variants exist from the SSP.
	if len(p.Dir.Find("S", ir.MsgEvent("Upgrade"))) != 2 {
		t.Errorf("directory S+Upgrade must have sharer/nonsharer variants")
	}
	// Cache: upgrade root + Inv restarts into the GetM root (IMAD).
	var upRoot ir.StateName
	for _, n := range p.Cache.Order {
		st := p.Cache.State(n)
		if st.Kind == ir.Transient && st.Origin == "S" && st.Target == "M" && !st.RespSeen && len(st.Chain) == 0 {
			upRoot = n
			break
		}
	}
	if upRoot == "" {
		t.Fatalf("no S->M upgrade root found")
	}
	trs := p.Cache.Find(upRoot, ir.MsgEvent("Inv"))
	if len(trs) != 1 || trs[0].Next != "IMAD" {
		t.Errorf("%s+Inv must restart at IMAD, got %v", upRoot, trs)
	}
}

// TestUnorderedMSI: the handshake protocol's directory serializes via
// Unblock-busy states.
func TestUnorderedMSI(t *testing.T) {
	p := genProtocol(t, protocols.MSIUnordered, NonStallingOpts())
	if p.Ordered {
		t.Fatalf("MSI_Unordered must declare an unordered network")
	}
	// Every Get transaction leaves the directory busy awaiting Unblock:
	// there must be >= 4 transient directory states.
	transients := 0
	for _, n := range p.Dir.Order {
		if p.Dir.State(n).Kind == ir.Transient {
			transients++
		}
	}
	if transients < 4 {
		t.Errorf("unordered directory has %d transient states, want >= 4 busy states", transients)
	}
	// Busy states defer requests.
	for _, n := range p.Dir.Order {
		if p.Dir.State(n).Kind != ir.Transient {
			continue
		}
		trs := p.Dir.Find(n, ir.MsgEvent("GetS"))
		if len(trs) != 1 {
			t.Errorf("busy state %s must handle GetS once, got %d", n, len(trs))
			continue
		}
		if len(trs[0].Actions) != 1 || trs[0].Actions[0].Op != ir.ADefer {
			t.Errorf("busy state %s must defer GetS, got %s", n, trs[0].CellString())
		}
	}
	// The M+GetS busy tree accepts writeback and Unblock in either order.
	var mGetS ir.Transition
	for _, tr := range p.Dir.Find("M", ir.MsgEvent("GetS")) {
		mGetS = tr
	}
	busy := mGetS.Next
	if len(p.Dir.Find(busy, ir.MsgEvent("Data"))) == 0 || len(p.Dir.Find(busy, ir.MsgEvent("Unblock"))) == 0 {
		t.Errorf("busy state %s must accept both Data and Unblock", busy)
	}
}

// TestTSOCCGeneration: the consistency-directed protocol generates; the
// directory never sends invalidations and S->I is silent.
func TestTSOCCGeneration(t *testing.T) {
	p := genProtocol(t, protocols.TSOCC, NonStallingOpts())
	for _, tr := range p.Dir.Trans {
		for _, a := range tr.Actions {
			if a.Op == ir.ASend && a.Msg == "Inv" {
				t.Fatalf("TSO-CC directory must not invalidate")
			}
		}
	}
	trs := p.Cache.Find("S", ir.AccessEvent(ir.AccessAcq))
	if len(trs) != 1 || trs[0].Next != "I" {
		t.Fatalf("S+acq must self-invalidate, got %v", trs)
	}
	for _, a := range trs[0].Actions {
		if a.Op == ir.ASend {
			t.Errorf("self-invalidation must be silent")
		}
	}
	// S and I share a class via the silent transitions.
	if p.ClassOf("S") != p.ClassOf("I") {
		t.Errorf("S and I must share a directory-visible class in TSO-CC")
	}
}

// TestStateCountsBand records the §VI-B claim ("18-20 states and 46-60
// transitions" for the non-stalling protocols). MSI at the default L
// reproduces Table VI's 19 states exactly; MESI and MOSI sit inside the
// paper's band at pending limit L=1 and grow richer (more absorption
// chains) at the default L=3 — both operating points are asserted so
// regressions surface.
func TestStateCountsBand(t *testing.T) {
	// MSI reproduces Table VI's 19 states exactly at the default L; MESI
	// lands inside the paper's 18-20 band at L=1. Our MOSI exceeds the
	// band (23 at L=1): the owner-upgrade Ack_Count route contributes the
	// primer's OM^AC/OM^A pair, and the model checker proves the
	// late-forward states (O_Fwd_GetS overtaken by the upgrade response)
	// are required — dropping them leaves reachable unhandled messages.
	// `experiments -run e-b` prints both operating points (paper §VI-B).
	wantDefault := map[string]int{"MSI": 19, "MESI": 23, "MOSI": 37}
	wantL1 := map[string]int{"MSI": 17, "MESI": 20, "MOSI": 23}
	for _, name := range []string{"MSI", "MESI", "MOSI"} {
		e, _ := protocols.Lookup(name)
		p := genProtocol(t, e.Source, NonStallingOpts())
		states, trans, _ := p.Cache.Counts()
		t.Logf("%s non-stalling L=3: %d states, %d transitions", name, states, trans)
		if states != wantDefault[name] {
			t.Errorf("%s (L=3): %d states, want %d", name, states, wantDefault[name])
		}
		o := NonStallingOpts()
		o.PendingLimit = 1
		p = genProtocol(t, e.Source, o)
		states, trans, _ = p.Cache.Counts()
		t.Logf("%s non-stalling L=1: %d states, %d transitions", name, states, trans)
		if states != wantL1[name] {
			t.Errorf("%s (L=1): %d states, want %d", name, states, wantL1[name])
		}
	}
}
