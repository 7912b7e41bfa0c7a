package engine

import (
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

func msiSystem(t *testing.T, opts core.Options) *System {
	t.Helper()
	return system(t, protocols.MSI, opts)
}

// system generates src under opts and instantiates it with two caches.
func system(t *testing.T, src string, opts core.Options) *System {
	t.Helper()
	spec, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(p, Config{Caches: 2, Capacity: 6, Values: 2})
}

// step applies the first enabled rule matching the predicate.
func step(t *testing.T, s *System, want func(Rule) bool) []Perform {
	t.Helper()
	for _, r := range s.Rules() {
		if want(r) {
			p, err := s.Apply(r)
			if err != nil {
				t.Fatalf("apply %s: %v", r, err)
			}
			return p
		}
	}
	t.Fatalf("no matching rule; enabled: %v", s.Rules())
	return nil
}

func deliverTo(dst int, typ string) func(Rule) bool {
	return func(r Rule) bool {
		return r.Kind == RuleDeliver && r.Del.Msg.Dst == dst && r.Del.Msg.Type == typ
	}
}

func access(cache int, a ir.AccessType) func(Rule) bool {
	return func(r Rule) bool {
		return r.Kind == RuleAccess && r.Cache == cache && r.Access == a
	}
}

// TestLoadTransaction drives I -> ISD -> S for cache 0.
func TestLoadTransaction(t *testing.T) {
	s := msiSystem(t, core.NonStallingOpts())
	step(t, s, access(0, ir.AccessLoad))
	if s.Caches[0].State != "ISD" {
		t.Fatalf("after GetS issue: %s, want ISD", s.Caches[0].State)
	}
	step(t, s, deliverTo(s.DirID(), "GetS"))
	if s.Dir.State != "S" {
		t.Fatalf("directory state %s, want S", s.Dir.State)
	}
	perf := step(t, s, deliverTo(0, "Data"))
	if s.Caches[0].State != "S" {
		t.Fatalf("after Data: %s, want S", s.Caches[0].State)
	}
	if len(perf) != 1 || perf[0].Access != ir.AccessLoad || perf[0].Exempt {
		t.Fatalf("performs = %v, want one non-exempt load", perf)
	}
	if s.Net.InFlight() != 0 {
		t.Fatalf("network must drain, %d left", s.Net.InFlight())
	}
}

// TestStoreWithInvalidation drives the full two-cache race: cache 0 takes
// S, cache 1 stores, invalidation flows, cache 1 reaches M.
func TestStoreWithInvalidation(t *testing.T) {
	s := msiSystem(t, core.NonStallingOpts())
	// cache 0 -> S.
	step(t, s, access(0, ir.AccessLoad))
	step(t, s, deliverTo(s.DirID(), "GetS"))
	step(t, s, deliverTo(0, "Data"))
	// cache 1 stores.
	step(t, s, access(1, ir.AccessStore))
	step(t, s, deliverTo(s.DirID(), "GetM"))
	if s.Dir.State != "M" {
		t.Fatalf("dir %s, want M", s.Dir.State)
	}
	// Data (acks=1) to cache 1; Inv to cache 0.
	step(t, s, deliverTo(1, "Data"))
	if s.Caches[1].State != "SMA" && s.Caches[1].State != "IMA" {
		t.Fatalf("cache1 %s, want IMA (awaiting one Inv-Ack)", s.Caches[1].State)
	}
	step(t, s, deliverTo(0, "Inv"))
	if s.Caches[0].State != "I" {
		t.Fatalf("cache0 %s, want I after Inv", s.Caches[0].State)
	}
	perf := step(t, s, deliverTo(1, "Inv_Ack"))
	if s.Caches[1].State != "M" {
		t.Fatalf("cache1 %s, want M", s.Caches[1].State)
	}
	if len(perf) != 1 || perf[0].Access != ir.AccessStore || perf[0].Value != 1 {
		t.Fatalf("performs = %v, want store of value 1", perf)
	}
	if s.LastWrite != 1 {
		t.Fatalf("LastWrite = %d", s.LastWrite)
	}
	// cache 1 now hits on loads with the stored value.
	hits := s.AppendHitLoads(nil)
	if len(hits) != 1 || hits[0].Cache != 1 || hits[0].Value != 1 {
		t.Fatalf("hit loads = %v", hits)
	}
}

// TestNonStallingAbsorption: cache 0 in IMAD absorbs a Fwd_GetS and later
// flushes Data to both the requestor and the directory.
func TestNonStallingAbsorption(t *testing.T) {
	s := msiSystem(t, core.NonStallingOpts())
	// cache 0 takes M.
	step(t, s, access(0, ir.AccessStore))
	step(t, s, deliverTo(s.DirID(), "GetM"))
	step(t, s, deliverTo(0, "Data"))
	if s.Caches[0].State != "M" {
		t.Fatalf("cache0 %s, want M", s.Caches[0].State)
	}
	// cache 0 replaces; before Put-Ack, cache 1 asks for S.
	step(t, s, access(0, ir.AccessRepl))
	step(t, s, access(1, ir.AccessLoad))
	step(t, s, deliverTo(s.DirID(), "GetS")) // dir M: forwards to owner 0, -> SD
	if s.Dir.State != "SD" {
		t.Fatalf("dir %s, want SD", s.Dir.State)
	}
	step(t, s, deliverTo(0, "Fwd_GetS")) // MIA + Fwd_GetS -> SIA (Case 1)
	if s.Caches[0].State != "SIA" {
		t.Fatalf("cache0 %s, want SIA", s.Caches[0].State)
	}
	step(t, s, deliverTo(1, "Data"))
	if s.Caches[1].State != "S" {
		t.Fatalf("cache1 %s, want S", s.Caches[1].State)
	}
	// Writeback completes the directory, whose deferred queue drains the
	// stale PutM with a Put-Ack.
	step(t, s, deliverTo(s.DirID(), "Data"))
	if s.Dir.State != "S" {
		t.Fatalf("dir %s, want S", s.Dir.State)
	}
	step(t, s, deliverTo(s.DirID(), "PutM")) // stale put
	step(t, s, deliverTo(0, "Put_Ack"))
	if s.Caches[0].State != "I" {
		t.Fatalf("cache0 %s, want I", s.Caches[0].State)
	}
}

// TestStallingBlocksChannel: in the stalling protocol, a Fwd_GetS arriving
// at IMAD is not deliverable.
func TestStallingBlocksChannel(t *testing.T) {
	s := msiSystem(t, core.StallingOpts())
	// cache 0 to M, then replace; meanwhile cache 1 stores.
	step(t, s, access(0, ir.AccessStore))
	step(t, s, deliverTo(s.DirID(), "GetM"))
	// cache 1 stores too; dir forwards to owner 0, which is still in IMAD.
	step(t, s, access(1, ir.AccessStore))
	step(t, s, deliverTo(s.DirID(), "GetM"))
	// Fwd_GetM to cache 0 must not be deliverable (IMAD stalls it).
	for _, r := range s.Rules() {
		if r.Kind == RuleDeliver && r.Del.Msg.Type == "Fwd_GetM" && r.Del.Msg.Dst == 0 {
			t.Fatalf("stalled Fwd_GetM must not be enabled")
		}
	}
	// Completing cache 0's store unblocks it.
	step(t, s, deliverTo(0, "Data"))
	if s.Caches[0].State != "M" {
		t.Fatalf("cache0 %s, want M", s.Caches[0].State)
	}
	step(t, s, deliverTo(0, "Fwd_GetM"))
	if s.Caches[0].State != "I" {
		t.Fatalf("cache0 %s, want I after Fwd_GetM", s.Caches[0].State)
	}
}

// TestKeyDeterminism: identical histories produce identical keys, and a
// differing history produces a different key.
func TestKeyDeterminism(t *testing.T) {
	a := msiSystem(t, core.NonStallingOpts())
	b := msiSystem(t, core.NonStallingOpts())
	if string(NewEncoder(a.P).Key(a)) != string(NewEncoder(b.P).Key(b)) {
		t.Fatalf("initial keys differ")
	}
	step(t, a, access(0, ir.AccessLoad))
	step(t, b, access(0, ir.AccessLoad))
	if string(NewEncoder(a.P).Key(a)) != string(NewEncoder(b.P).Key(b)) {
		t.Fatalf("keys diverge after identical steps")
	}
	c := msiSystem(t, core.NonStallingOpts())
	step(t, c, access(0, ir.AccessStore))
	if string(NewEncoder(a.P).Key(a)) == string(NewEncoder(c.P).Key(c)) {
		t.Fatalf("different histories must differ")
	}
}

// TestCloneIndependence: mutating a clone leaves the original untouched.
func TestCloneIndependence(t *testing.T) {
	s := msiSystem(t, core.NonStallingOpts())
	step(t, s, access(0, ir.AccessLoad))
	key := string(NewEncoder(s.P).Key(s))
	c := s.Clone()
	step(t, c, deliverTo(s.DirID(), "GetS"))
	if string(NewEncoder(s.P).Key(s)) != key {
		t.Fatalf("clone mutation leaked into the original")
	}
	if string(NewEncoder(c.P).Key(c)) == key {
		t.Fatalf("clone did not change")
	}
}

// TestUnexpectedMessageIsError: delivering a message with no transition
// reports ErrUnexpected rather than dropping it.
func TestUnexpectedMessageIsError(t *testing.T) {
	s := msiSystem(t, core.NonStallingOpts())
	if err := s.Net.Send(Msg{Type: "Put_Ack", Src: s.DirID(), Dst: 0, Req: NoID, Class: 1}); err != nil {
		t.Fatal(err)
	}
	var derr error
	for _, r := range s.Rules() {
		if r.Kind == RuleDeliver {
			_, derr = s.Apply(r)
		}
	}
	if derr == nil {
		t.Fatalf("unexpected Put_Ack at I must error")
	}
	if !strings.Contains(derr.Error(), "unexpected") {
		t.Fatalf("error %q must mention unexpected", derr)
	}
}

// TestOrderedVsUnorderedDeliverables: point-to-point order exposes only
// FIFO heads; unordered exposes everything.
func TestOrderedVsUnorderedDeliverables(t *testing.T) {
	on := NewNetwork(true, 2, 4)
	un := NewNetwork(false, 2, 4)
	for _, n := range []*Network{on, un} {
		if err := n.Send(Msg{Type: "A", Src: 0, Dst: 1, Class: 1}); err != nil {
			t.Fatal(err)
		}
		if err := n.Send(Msg{Type: "B", Src: 0, Dst: 1, Class: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(on.Deliverables()); got != 1 {
		t.Errorf("ordered deliverables = %d, want 1 (head only)", got)
	}
	if got := len(un.Deliverables()); got != 2 {
		t.Errorf("unordered deliverables = %d, want 2", got)
	}
	// Removing the head keeps FIFO order.
	d := on.Deliverables()[0]
	if d.Msg.Type != "A" {
		t.Errorf("head = %s, want A", d.Msg.Type)
	}
	on.Remove(d)
	if on.Deliverables()[0].Msg.Type != "B" {
		t.Errorf("after Remove, head must be B")
	}
}

// TestNetworkOverflow: exceeding capacity errors.
func TestNetworkOverflow(t *testing.T) {
	n := NewNetwork(true, 2, 2)
	for i := 0; i < 2; i++ {
		if err := n.Send(Msg{Type: "X", Src: 0, Dst: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Send(Msg{Type: "X", Src: 0, Dst: 1}); err == nil {
		t.Fatalf("overflow must error")
	}
}
