package verify

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

// stuckMutant is a registry protocol with one cache transition broken
// so that quiescence becomes unreachable from some states while nothing
// deadlocks: a message handler made a stall, or made a self-loop that
// keeps its actions. The generator cannot emit these (it rejects an SSP
// that drops a Put_Ack), so they are built on the generated ir. full
// and reduced are the stuck violation's "N of M" at 2 caches with
// Reduce off and on, recorded on the checker that still kept the whole
// successor graph and inverted it; their witnesses are in
// testdata/witness.golden under name.
type stuckMutant struct {
	name           string
	protocol, mode string
	from           ir.StateName
	msg            ir.MsgType
	guard          string // the transition's GuardLabel
	self           bool   // Next = From, actions kept; otherwise a stall
	full, reduced  string
}

var stuckMutants = []stuckMutant{
	{"MSI_IIA_Put_Ack_stall", "MSI", "stalling", "IIA", "Put_Ack", "", false, "2328 of 8180", "1894 of 5507"},
	{"MSI_ISDI_Data_stall", "MSI", "nonstalling", "ISDI", "Data", "", false, "2004 of 11963", "1884 of 9741"},
	{"MSI_IMAI_last_Inv_Ack_self", "MSI", "nonstalling", "IMAI", "Inv_Ack", "acksReceived + 1 == acksExpected", true, "163 of 12116", "147 of 9878"},
	{"MOSI_OIA_Put_Ack_self", "MOSI", "stalling", "OIA", "Put_Ack", "", true, "1080 of 12480", "768 of 8541"},
	{"MSI_Unordered_IIA_Put_Ack_stall", "MSI_Unordered", "stalling", "IIA", "Put_Ack", "", false, "2652 of 9436", "2340 of 7017"},
	{"TSO_CC_IMDS_Data_self", "TSO_CC", "nonstalling", "IMDS", "Data", "", true, "158 of 2616", "123 of 1588"},
}

// build generates the mutant's protocol.
func (m stuckMutant) build(t *testing.T) *ir.Protocol {
	t.Helper()
	return mutate(t, m.protocol, m.mode, m.from, m.msg, m.guard, func(tr *ir.Transition) {
		if m.self {
			tr.Next = tr.From
		} else {
			tr.Stall, tr.Actions, tr.Next = true, nil, tr.From
		}
	})
}

// mutate generates the registry protocol in mode and applies edit to the
// one cache transition out of from on msg whose GuardLabel is guard.
func mutate(t *testing.T, protocol, mode string, from ir.StateName, msg ir.MsgType, guard string, edit func(*ir.Transition)) *ir.Protocol {
	t.Helper()
	e, ok := protocols.Lookup(protocol)
	if !ok {
		t.Fatalf("unknown builtin %s", protocol)
	}
	p := gen(t, e.Source, optsForMode(t, mode))
	ts := append([]ir.Transition(nil), p.Cache.Trans...)
	hit := 0
	for i := range ts {
		if tr := &ts[i]; tr.From == from && tr.Ev == ir.MsgEvent(msg) && tr.GuardLabel == guard {
			hit++
			edit(tr)
		}
	}
	if hit != 1 {
		t.Fatalf("%s %s: %d transitions out of %s on %s match, want 1", protocol, mode, hit, from, msg)
	}
	p.Cache.SetTransitions(ts)
	return p
}

// TestStuckMutants: every mutant fails liveness alone, with its recorded
// "N of M", at Parallelism 1 and 4, exact and fingerprint, Reduce off
// and on; the witness (Detail and Trace) does not move across those
// settings.
func TestStuckMutants(t *testing.T) {
	for _, m := range stuckMutants {
		p := m.build(t)
		for _, reduce := range []bool{false, true} {
			want := m.full
			if reduce {
				want = m.reduced
			}
			cfg := QuickConfig()
			cfg.Reduce = reduce
			var first *Violation
			for _, par := range []int{1, 4} {
				for _, fp := range []bool{false, true} {
					cfg.Parallelism, cfg.Fingerprint = par, fp
					name := fmt.Sprintf("%s reduce=%t P=%d fingerprint=%t", m.name, reduce, par, fp)
					r := Check(p, cfg)
					if len(r.Violations) != 1 || r.Violations[0].Kind != "stuck" {
						t.Fatalf("%s: want one stuck violation, got %v", name, r)
					}
					v := r.Violations[0]
					if !strings.Contains(v.Detail, fmt.Sprintf("unreachable from %s states", want)) {
						t.Errorf("%s: %q, recorded %s", name, v.Detail, want)
					}
					if first == nil {
						first = &v
					} else if v.Detail != first.Detail || strings.Join(v.Trace, "\n") != strings.Join(first.Trace, "\n") {
						t.Errorf("%s: the witness moved from P=1 exact:\n%v\n%v", name, v, *first)
					}
				}
			}
		}
	}
}

// TestStuckMutantsMatchReference: with symmetry and reduction off, the
// checker's stuck count and state count are the reference explorer's,
// whose backward fixpoint over its own predecessor lists shares no code
// with the drain walk or the searches.
func TestStuckMutantsMatchReference(t *testing.T) {
	for _, m := range stuckMutants {
		p := m.build(t)
		cfg := QuickConfig()
		cfg.Symmetry = false
		ref := refExplore(p, cfg, false)
		if len(ref.kinds) != 1 || !ref.kinds["stuck"] {
			t.Fatalf("%s: the reference found %v, want stuck alone", m.name, ref.kinds)
		}
		r := Check(p, cfg)
		want := fmt.Sprintf("quiescence unreachable from %d of %d states", ref.stuck, ref.states)
		if len(r.Violations) != 1 || !strings.Contains(r.Violations[0].Detail, want) {
			t.Errorf("%s: checker %v, reference %s", m.name, r, want)
		}
	}
}

// TestDrainProvesPassingRuns: on the registry × core.Modes at 2 caches,
// Reduce off and on, the drain walk alone proves every state good, so a
// passing run's liveness check expands no state.
func TestDrainProvesPassingRuns(t *testing.T) {
	for _, e := range protocols.All {
		for _, mode := range core.Modes {
			p := gen(t, e.Source, optsForMode(t, mode))
			for _, reduce := range []bool{false, true} {
				name := fmt.Sprintf("%s %s reduce=%t", e.Name, mode, reduce)
				cfg := QuickConfig()
				cfg.Reduce = reduce
				c := explore(context.Background(), p, cfg)
				if c.res.Verdict() != Pass {
					t.Fatalf("%s: %v", name, c.res)
				}
				quiescent := c.res.Quiescent
				c.res.Quiescent = 0
				c.livenessCheck(func(s int32, out []int32) []int32 {
					t.Fatalf("%s: the drain walk left state %d of %d open", name, s, c.res.States)
					return out
				})
				if c.res.Quiescent != quiescent || !c.res.OK() {
					t.Errorf("%s: the second check read %d quiescent states (first %d): %v", name, c.res.Quiescent, quiescent, c.res)
				}
			}
		}
	}
}
