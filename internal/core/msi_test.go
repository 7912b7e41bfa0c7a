package core

import (
	"strings"
	"testing"

	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

func genMSI(t *testing.T, opts Options) *ir.Protocol {
	t.Helper()
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatalf("parse MSI: %v", err)
	}
	p, err := Generate(spec, opts)
	if err != nil {
		t.Fatalf("generate MSI: %v", err)
	}
	return p
}

// cell returns the single transition for (state, event[, guard-label
// substring]) and fails if it is missing or ambiguous.
func cell(t *testing.T, m *ir.Machine, s ir.StateName, ev ir.Event, guardSub string) ir.Transition {
	t.Helper()
	var hits []ir.Transition
	for _, tr := range m.Find(s, ev) {
		if guardSub == "" && tr.GuardLabel == "" || guardSub != "" && strings.Contains(tr.GuardLabel, guardSub) {
			hits = append(hits, tr)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("cell (%s, %s, %q): %d transitions", s, ev, guardSub, len(hits))
	}
	return hits[0]
}

func hasSend(tr ir.Transition, msg ir.MsgType, dst ir.DstKind) bool {
	for _, a := range tr.Actions {
		if a.Op == ir.ASend && a.Msg == msg && a.Dst == dst {
			return true
		}
	}
	return false
}

// TestTableVIStates asserts the generated non-stalling MSI has exactly the
// 19 states of paper Table VI, with the paper's merges.
func TestTableVIStates(t *testing.T) {
	p := genMSI(t, NonStallingOpts())
	want := []ir.StateName{
		"I", "S", "M",
		"ISD", "IMAD", "IMA", "SMAD", "SMA", "SIA", "MIA",
		"ISDI", "IMADI", "IMADS", "IMAI", "IMAS", "SMADS", "IIA",
		"IMADSI", "IMASI",
	}
	if len(p.Cache.Sts) != len(want) {
		t.Errorf("cache has %d states, want %d (Table VI)", len(p.Cache.Sts), len(want))
	}
	for _, n := range want {
		if p.Cache.State(n) == nil {
			t.Errorf("missing Table VI state %s", n)
		}
	}
	aliases := map[ir.StateName][]ir.StateName{
		"IMAS":   {"SMAS"},
		"IMASI":  {"SMASI"},
		"IMAI":   {"SMAI"},
		"IMADI":  {"SMADI"},
		"IMADSI": {"SMADSI"},
	}
	for n, al := range aliases {
		st := p.Cache.State(n)
		if st == nil {
			continue
		}
		got := map[ir.StateName]bool{}
		for _, a := range st.Aliases {
			got[a] = true
		}
		for _, a := range al {
			if !got[a] {
				t.Errorf("state %s must have merged alias %s (paper's %s = %s), got %v", n, a, n, a, st.Aliases)
			}
		}
	}
}

// TestTableVICells spot-checks the load/store columns and every bold
// (ProtoGen-specific) transition of paper Table VI.
func TestTableVICells(t *testing.T) {
	p := genMSI(t, NonStallingOpts())
	c := p.Cache

	// Load permission column: hit in SMAD, SMA, SMADS; stall elsewhere.
	loadHit := map[ir.StateName]bool{
		"SMAD": true, "SMA": true, "SMADS": true,
	}
	for _, n := range []ir.StateName{"ISD", "ISDI", "IMAD", "IMA", "IMAS", "IMASI",
		"IMAI", "SMAD", "SMA", "IMADS", "IMADI", "IMADSI", "SMADS", "MIA", "SIA", "IIA"} {
		tr := cell(t, c, n, ir.AccessEvent(ir.AccessLoad), "")
		if loadHit[n] && tr.Stall {
			t.Errorf("%s: load must hit (Table VI), got stall", n)
		}
		if !loadHit[n] && !tr.Stall {
			t.Errorf("%s: load must stall (Table VI), got %s", n, tr.CellString())
		}
		st := cell(t, c, n, ir.AccessEvent(ir.AccessStore), "")
		if !st.Stall {
			t.Errorf("%s: store must stall in transient states", n)
		}
	}

	// ISD + Inv: immediate Inv-Ack, to ISDI; ISDI + Data: perform one load, to I.
	tr := cell(t, c, "ISD", ir.MsgEvent("Inv"), "")
	if !hasSend(tr, "Inv_Ack", ir.DstMsgReq) || tr.Next != "ISDI" {
		t.Errorf("ISD+Inv = %s, want Inv-Ack to req / ISDI", tr.CellString())
	}
	tr = cell(t, c, "ISDI", ir.MsgEvent("Data"), "")
	if tr.Next != "I" {
		t.Errorf("ISDI+Data must end in I, got %s", tr.Next)
	}
	perform := false
	for _, a := range tr.Actions {
		if a.Op == ir.APerform {
			perform = true
		}
	}
	if !perform {
		t.Errorf("ISDI+Data must perform the stalled load (livelock rule)")
	}

	// IMAD: non-stalling absorptions (bold in Table VI).
	if tr = cell(t, c, "IMAD", ir.MsgEvent("Fwd_GetS"), ""); tr.Next != "IMADS" || tr.Stall {
		t.Errorf("IMAD+Fwd_GetS = %s, want -/IMADS", tr.CellString())
	}
	if tr = cell(t, c, "IMAD", ir.MsgEvent("Fwd_GetM"), ""); tr.Next != "IMADI" {
		t.Errorf("IMAD+Fwd_GetM = %s, want -/IMADI", tr.CellString())
	}
	// SMAD: Case 1 on Inv (respond immediately, restart from I = IMAD);
	// Case 2 on Fwd_GetM lands in the merged IMADI.
	tr = cell(t, c, "SMAD", ir.MsgEvent("Inv"), "")
	if !hasSend(tr, "Inv_Ack", ir.DstMsgReq) || tr.Next != "IMAD" {
		t.Errorf("SMAD+Inv = %s, want send Inv-Ack to req / IMAD (Figure 1)", tr.CellString())
	}
	if tr = cell(t, c, "SMAD", ir.MsgEvent("Fwd_GetM"), ""); tr.Next != "IMADI" {
		t.Errorf("SMAD+Fwd_GetM = %s, want -/IMADI (merged)", tr.CellString())
	}
	if tr = cell(t, c, "SMAD", ir.MsgEvent("Fwd_GetS"), ""); tr.Next != "SMADS" {
		t.Errorf("SMAD+Fwd_GetS = %s, want -/SMADS", tr.CellString())
	}
	// IMA/SMA absorb into the merged states.
	if tr = cell(t, c, "IMA", ir.MsgEvent("Fwd_GetS"), ""); tr.Next != "IMAS" {
		t.Errorf("IMA+Fwd_GetS = %s, want -/IMAS", tr.CellString())
	}
	if tr = cell(t, c, "SMA", ir.MsgEvent("Fwd_GetS"), ""); tr.Next != "IMAS" {
		t.Errorf("SMA+Fwd_GetS = %s, want -/IMAS (merged SMAS)", tr.CellString())
	}
	if tr = cell(t, c, "SMA", ir.MsgEvent("Fwd_GetM"), ""); tr.Next != "IMAI" {
		t.Errorf("SMA+Fwd_GetM = %s, want -/IMAI", tr.CellString())
	}

	// IMAS + Inv -> Inv-Ack now, IMASI; last Inv-Ack flushes Data to req+dir.
	tr = cell(t, c, "IMAS", ir.MsgEvent("Inv"), "")
	if !hasSend(tr, "Inv_Ack", ir.DstMsgReq) || tr.Next != "IMASI" {
		t.Errorf("IMAS+Inv = %s, want Inv-Ack/IMASI", tr.CellString())
	}
	tr = cell(t, c, "IMAS", ir.MsgEvent("Inv_Ack"), "==")
	if tr.Next != "S" {
		t.Errorf("IMAS+last Inv_Ack must complete to S, got %s", tr.Next)
	}
	tr = cell(t, c, "IMASI", ir.MsgEvent("Inv_Ack"), "==")
	if tr.Next != "I" {
		t.Errorf("IMASI+last Inv_Ack must complete to I, got %s", tr.Next)
	}

	// Replacement races (MI_A / SI_A / II_A).
	tr = cell(t, c, "MIA", ir.MsgEvent("Fwd_GetS"), "")
	if tr.Next != "SIA" || !hasSend(tr, "Data", ir.DstMsgReq) || !hasSend(tr, "Data", ir.DstDir) {
		t.Errorf("MIA+Fwd_GetS = %s, want Data to req and dir / SIA", tr.CellString())
	}
	tr = cell(t, c, "MIA", ir.MsgEvent("Fwd_GetM"), "")
	if tr.Next != "IIA" || !hasSend(tr, "Data", ir.DstMsgReq) {
		t.Errorf("MIA+Fwd_GetM = %s, want Data to req / IIA", tr.CellString())
	}
	tr = cell(t, c, "SIA", ir.MsgEvent("Inv"), "")
	if tr.Next != "IIA" || !hasSend(tr, "Inv_Ack", ir.DstMsgReq) {
		t.Errorf("SIA+Inv = %s, want Inv-Ack / IIA", tr.CellString())
	}
	tr = cell(t, c, "IIA", ir.MsgEvent("Put_Ack"), "")
	if tr.Next != "I" {
		t.Errorf("IIA+Put_Ack = %s, want -/I", tr.CellString())
	}

	// Deferred obligations: Fwd_GetS owes Data to requestor and dir,
	// Fwd_GetM owes Data to requestor only.
	dg := c.DeferredActions["Fwd_GetS"]
	if len(dg) != 2 {
		t.Fatalf("Fwd_GetS deferred actions = %v", dg)
	}
	dm := c.DeferredActions["Fwd_GetM"]
	if len(dm) != 1 || dm[0].Dst != ir.DstDeferred || !dm[0].Payload.WithData {
		t.Fatalf("Fwd_GetM deferred actions = %v", dm)
	}
}

// TestTableVICounts pins, exactly, the size of every generated
// controller the paper's evaluation sizes: states, transitions
// (ir.Machine.Counts: stalls and generator-added stale completions
// excluded) and folded cells — distinct (state, event) pairs, which is
// how the paper's tables count, since they fold the guard-split Data /
// Inv_Ack variants this tree keeps as separate transitions into one
// column. A generator change that moves any of them must say so here.
// The L=1 operating point of the same claim is TestStateCountsBand's.
func TestTableVICounts(t *testing.T) {
	type size struct{ states, trans, cells int }
	type sizes struct{ cache, dir size }
	want := map[string]map[string]sizes{
		"MSI": {
			// §VI-A: the stalling output is the primer's MSI, 11 cache
			// states (primer Table 8.3; TestStallingMSI names them). The
			// directory is the primer's too: I, S, M and the one transient
			// S^D, whose four request cells (GetS, GetM, PutS, PutM) stall
			// and so are not transitions.
			"stalling": {cache: size{11, 33, 27}, dir: size{4, 14, 13}},
			// Table VI: 19 cache states — reproduced exactly. §VI-B's band is
			// "18-20 states and 46-60 transitions": 52 folded cells sits
			// inside it; 69 is the unfolded count. The directory keeps its
			// four states (the paper adds none: S^D is the SSP's own); the
			// four cells the primer stalls in S^D are handled, 14 + 4 = 18.
			"nonstalling": {cache: size{19, 69, 52}, dir: size{4, 18, 17}},
			// §V-D2's all-deferred design: the same table shape as Table VI,
			// only the response timing differs. The paper prints no count.
			"deferred": {cache: size{19, 69, 52}, dir: size{4, 18, 17}},
		},
		"MESI": {
			// §VI-A (primer's stalling MESI); the paper prints no count.
			// Directory: I, S, M (standing for E or M), S^D; PutE joins the
			// stalled S^D cells, five in all.
			"stalling": {cache: size{12, 39, 33}, dir: size{4, 18, 16}},
			// §VI-B band 18-20 / 46-60: the tree is OUTSIDE it at the default
			// pending limit L=3 (23 states, 64 cells) and inside it at L=1 (20
			// states) — the extra states are deeper absorption chains. The
			// directory is untouched by L: 18 + the 5 unstalled S^D cells.
			"nonstalling": {cache: size{23, 81, 64}, dir: size{4, 23, 21}},
			"deferred":    {cache: size{23, 81, 64}, dir: size{4, 23, 21}},
		},
		"MOSI": {
			// §VI-A (primer's stalling MOSI); the paper prints no count.
			// Directory: I, S, O, M and no transient — the owner answers
			// forwarded requests, so the directory never waits, never stalls,
			// and is the same 24-transition machine in all three modes.
			"stalling": {cache: size{15, 54, 45}, dir: size{4, 24, 20}},
			// §VI-B band 18-20 / 46-60: the tree DEPARTS from the paper here
			// at either limit (37 states at L=3, 23 at L=1). The owner-upgrade
			// Ack_Count route adds the primer's OM^AC/OM^A pair and the
			// checker proves the late-forward states are needed; see
			// TestStateCountsBand.
			"nonstalling": {cache: size{37, 162, 117}, dir: size{4, 24, 20}},
			"deferred":    {cache: size{37, 162, 117}, dir: size{4, 24, 20}},
		},
	}
	sizeOf := func(m *ir.Machine) (got size) {
		got.states, got.trans, _ = m.Counts()
		cells := map[string]bool{}
		for _, tr := range m.Trans {
			if !tr.Stall && !tr.Stale {
				cells[string(tr.From)+"|"+tr.Ev.String()] = true
			}
		}
		got.cells = len(cells)
		return got
	}
	for _, name := range []string{"MSI", "MESI", "MOSI"} {
		for _, mode := range Modes {
			e, _ := protocols.Lookup(name)
			opts, err := OptionsForMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			p := genProtocol(t, e.Source, opts)
			if got := (sizes{sizeOf(p.Cache), sizeOf(p.Dir)}); got != want[name][mode] {
				t.Errorf("%s %s: {states, transitions, folded cells} of cache, directory = %v, pinned %v", name, mode, got, want[name][mode])
			}
		}
	}
}

// TestStallingMSI reproduces §VI-A: the stalling protocol has the primer's
// shape — Case 2 events stall, Case 1 still responds immediately.
func TestStallingMSI(t *testing.T) {
	p := genMSI(t, StallingOpts())
	c := p.Cache
	// No derived absorption states.
	for _, n := range []ir.StateName{"IMADS", "IMADI", "ISDI", "IMAS"} {
		if c.State(n) != nil {
			t.Errorf("stalling protocol must not contain %s", n)
		}
	}
	// The primer's 11 cache states (Table 8.3): I S M ISD IMAD IMA SMAD
	// SMA MIA SIA IIA.
	if len(c.Sts) != 11 {
		t.Errorf("stalling cache has %d states, want 11 (primer Table 8.3): %v", len(c.Sts), ir.SortedStateNames(c))
	}
	tr := cell(t, c, "IMAD", ir.MsgEvent("Fwd_GetS"), "")
	if !tr.Stall {
		t.Errorf("stalling: IMAD+Fwd_GetS must stall")
	}
	tr = cell(t, c, "ISD", ir.MsgEvent("Inv"), "")
	if !tr.Stall {
		t.Errorf("stalling: ISD+Inv must stall")
	}
	// Case 1 never stalls (deadlock argument of §V-D1).
	tr = cell(t, c, "SMAD", ir.MsgEvent("Inv"), "")
	if tr.Stall || tr.Next != "IMAD" {
		t.Errorf("stalling: SMAD+Inv must still respond immediately, got %s", tr.CellString())
	}
	tr = cell(t, c, "MIA", ir.MsgEvent("Fwd_GetM"), "")
	if tr.Stall || tr.Next != "IIA" {
		t.Errorf("stalling: MIA+Fwd_GetM must still respond, got %s", tr.CellString())
	}
	// Directory stalls in its transient state.
	tr = cell(t, p.Dir, "SD", ir.MsgEvent("GetS"), "")
	if !tr.Stall {
		t.Errorf("stalling: directory SD+GetS must stall")
	}
}

// TestDeferredResponsesMSI checks the physical-SWMR variant: even the
// Inv-Ack is deferred in ISD+Inv.
func TestDeferredResponsesMSI(t *testing.T) {
	p := genMSI(t, DeferredOpts())
	tr := cell(t, p.Cache, "ISD", ir.MsgEvent("Inv"), "")
	if hasSend(tr, "Inv_Ack", ir.DstMsgReq) {
		t.Errorf("deferred mode: ISD+Inv must not answer at arrival")
	}
	hasDefer := false
	for _, a := range tr.Actions {
		if a.Op == ir.ADefer {
			hasDefer = true
		}
	}
	if !hasDefer {
		t.Errorf("deferred mode: ISD+Inv must record a deferred obligation")
	}
	if _, ok := p.Cache.DeferredActions["Inv"]; !ok {
		t.Errorf("deferred mode: Inv must have deferred actions")
	}
}

// TestDirectoryMSI checks the generated directory: the S^D transient with
// request deferral, the stale-Put rule, and the owner guard split.
func TestDirectoryMSI(t *testing.T) {
	p := genMSI(t, NonStallingOpts())
	d := p.Dir
	if len(d.Sts) != 4 {
		t.Errorf("directory has %d states, want 4 (I S M SD)", len(d.Sts))
	}
	tr := cell(t, d, "SD", ir.MsgEvent("GetM"), "")
	if tr.Stall || len(tr.Actions) != 1 || tr.Actions[0].Op != ir.ADefer {
		t.Errorf("SD+GetM must defer, got %s", tr.CellString())
	}
	tr = cell(t, d, "SD", ir.MsgEvent("Data"), "")
	if tr.Next != "S" {
		t.Errorf("SD+Data must complete to S")
	}
	// Stale puts: every (state, Put) combination is acknowledged.
	for _, s := range []ir.StateName{"I", "S", "M", "SD"} {
		for _, put := range []ir.MsgType{"PutS", "PutM"} {
			trs := d.Find(s, ir.MsgEvent(put))
			if len(trs) == 0 {
				t.Errorf("directory %s+%s has no handling", s, put)
			}
		}
	}
	// M+PutM splits on the owner guard.
	own := cell(t, d, "M", ir.MsgEvent("PutM"), "src == owner")
	if own.Next != "I" {
		t.Errorf("M+PutM(owner) must go to I")
	}
	stale := cell(t, d, "M", ir.MsgEvent("PutM"), "src != owner")
	if stale.Next != "M" || !hasSend(stale, "Put_Ack", ir.DstMsgSrc) {
		t.Errorf("M+PutM(non-owner) must Put-Ack and stay, got %s", stale.CellString())
	}
}

// TestPendingLimit verifies L: the absorption depth sets the generated
// size (L=0 is the stalling protocol's 11 states, L=3 Table VI's 19),
// and with L=1 a second absorption stalls.
func TestPendingLimit(t *testing.T) {
	opts := NonStallingOpts()
	for l, want := range map[int]int{0: 11, 1: 17, 3: 19} {
		opts.PendingLimit = l
		if got := len(genMSI(t, opts).Cache.Sts); got != want {
			t.Errorf("L=%d: %d cache states, want %d", l, got, want)
		}
	}
	opts.PendingLimit = 1
	p := genMSI(t, opts)
	// IMADS exists (first absorption) but its Inv must stall rather than
	// create IMADSI.
	tr := cell(t, p.Cache, "IMADS", ir.MsgEvent("Inv"), "")
	if !tr.Stall {
		t.Errorf("L=1: IMADS+Inv must stall, got %s", tr.CellString())
	}
	if p.Cache.State("IMADSI") != nil {
		t.Errorf("L=1: IMADSI must not exist")
	}
}

// TestStaleInvHandling: with no sharer pruning on stale Puts, dangling
// sharers receive stale invalidations; every state must acknowledge them.
func TestStaleInvHandling(t *testing.T) {
	p := genMSI(t, NonStallingOpts())
	for _, n := range []ir.StateName{"I", "IMAD", "IMA", "M", "MIA"} {
		trs := p.Cache.Find(n, ir.MsgEvent("Inv"))
		if len(trs) != 1 {
			t.Fatalf("%s must have exactly one Inv transition, got %d", n, len(trs))
		}
		if !trs[0].Stale || !hasSend(trs[0], "Inv_Ack", ir.DstMsgReq) || trs[0].Next != n {
			t.Errorf("%s+Inv must be stale ack-and-stay, got %s", n, trs[0].CellString())
		}
	}
}

// TestGenerationDeterminism: generating twice yields identical protocols.
func TestGenerationDeterminism(t *testing.T) {
	a := genMSI(t, NonStallingOpts())
	b := genMSI(t, NonStallingOpts())
	if len(a.Cache.Order) != len(b.Cache.Order) {
		t.Fatalf("state counts differ across runs")
	}
	for i := range a.Cache.Order {
		if a.Cache.Order[i] != b.Cache.Order[i] {
			t.Errorf("state order differs at %d: %s vs %s", i, a.Cache.Order[i], b.Cache.Order[i])
		}
	}
	if len(a.Cache.Trans) != len(b.Cache.Trans) {
		t.Fatalf("transition counts differ across runs")
	}
	for i := range a.Cache.Trans {
		if a.Cache.Trans[i].Key() != b.Cache.Trans[i].Key() {
			t.Errorf("transition %d differs: %s vs %s", i, a.Cache.Trans[i].Key(), b.Cache.Trans[i].Key())
		}
	}
}

// TestOptionNotes sanity-checks the configuration echo.
func TestOptionNotes(t *testing.T) {
	if !strings.Contains(NonStallingOpts().Note(), "non-stalling") {
		t.Errorf("NonStallingOpts note: %s", NonStallingOpts().Note())
	}
	if !strings.Contains(StallingOpts().Note(), "stalling") {
		t.Errorf("StallingOpts note: %s", StallingOpts().Note())
	}
}
