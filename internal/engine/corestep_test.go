package engine

import (
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

// drain delivers accepted messages until the network is empty.
func drain(t *testing.T, s *System) {
	t.Helper()
	for i := 0; s.Net.InFlight() > 0; i++ {
		if i > 100 {
			t.Fatalf("network did not drain: %v", s.Net.Deliverables())
		}
		for _, d := range s.Net.Deliverables() {
			if s.Accepts(d) {
				if _, err := s.Apply(Rule{Kind: RuleDeliver, Del: d}); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
}

// TestTryHit: an access completes locally exactly when the current
// state hits it — a miss in I leaves the system untouched, S hits loads
// only, M hits loads and stores and returns the value written.
func TestTryHit(t *testing.T) {
	s := system(t, protocols.MSI, core.NonStallingOpts())
	key := string(NewEncoder(s.P).Key(s))
	for _, a := range []ir.AccessType{ir.AccessLoad, ir.AccessStore} {
		if hit, _ := s.TryHit(0, a); hit {
			t.Errorf("%v hit in I", a)
		}
	}
	if string(NewEncoder(s.P).Key(s)) != key {
		t.Fatal("a missed TryHit changed the system")
	}

	if err := s.Warm(0); err != nil {
		t.Fatal(err)
	}
	if hit, val := s.TryHit(0, ir.AccessLoad); !hit || val != 0 {
		t.Errorf("load in S: hit=%v val=%d, want a hit on the initial value 0", hit, val)
	}
	if hit, _ := s.TryHit(0, ir.AccessStore); hit {
		t.Error("store hit in S (it must start an upgrade transaction)")
	}

	step(t, s, access(0, ir.AccessStore))
	drain(t, s)
	if s.Caches[0].State != "M" {
		t.Fatalf("cache 0 is %s, want M", s.Caches[0].State)
	}
	hit, stored := s.TryHit(0, ir.AccessStore)
	if !hit || stored != s.LastWrite {
		t.Errorf("store in M: hit=%v val=%d, want a hit returning LastWrite=%d", hit, stored, s.LastWrite)
	}
	if hit, val := s.TryHit(0, ir.AccessLoad); !hit || val != stored {
		t.Errorf("load in M: hit=%v val=%d, want a hit on %d", hit, val, stored)
	}
}

// TestTryHitSilentTransition: an access whose transition sends nothing
// and changes state completes locally too — TSO-CC's acquire
// self-invalidates a Shared copy without a message.
func TestTryHitSilentTransition(t *testing.T) {
	s := system(t, protocols.TSOCC, core.NonStallingOpts())
	if err := s.Warm(1); err != nil {
		t.Fatal(err)
	}
	if s.Caches[1].State != "S" {
		t.Fatalf("warmed cache is %s, want S", s.Caches[1].State)
	}
	if hit, _ := s.TryHit(1, ir.AccessAcq); !hit {
		t.Fatal("acquire on S did not complete locally")
	}
	if s.Caches[1].State != "I" || s.Net.InFlight() != 0 {
		t.Errorf("after acquire: state %s with %d messages in flight, want I and none",
			s.Caches[1].State, s.Net.InFlight())
	}
}

// TestAcceptsStalledTarget: a message whose target stalls it is not
// accepted until the target leaves the stalling state.
func TestAcceptsStalledTarget(t *testing.T) {
	s := system(t, protocols.MSI, core.StallingOpts())
	step(t, s, access(0, ir.AccessStore))
	step(t, s, deliverTo(s.DirID(), "GetM"))
	step(t, s, access(1, ir.AccessStore))
	step(t, s, deliverTo(s.DirID(), "GetM"))
	// The directory forwarded cache 1's GetM to owner 0, still in IMAD.
	fwd := func() Deliverable {
		for _, d := range s.Net.Deliverables() {
			if d.Msg.Type == "Fwd_GetM" && d.Msg.Dst == 0 {
				return d
			}
		}
		t.Fatalf("no Fwd_GetM to cache 0 in %v", s.Net.Deliverables())
		return Deliverable{}
	}
	if s.Accepts(fwd()) {
		t.Fatalf("cache 0 in %s accepts a Fwd_GetM it stalls", s.Caches[0].State)
	}
	step(t, s, deliverTo(0, "Data"))
	if !s.Accepts(fwd()) {
		t.Fatalf("cache 0 in %s still refuses the Fwd_GetM", s.Caches[0].State)
	}
}

// TestAcceptsUnmatchedMessage pins the difference between the
// scheduler's predicate and the checker's: a message no transition
// handles is not accepted (a scheduler must never pick it), while the
// checker's rule enumeration keeps it enabled so Apply names it.
func TestAcceptsUnmatchedMessage(t *testing.T) {
	s := system(t, protocols.MSI, core.NonStallingOpts())
	if err := s.Net.Send(Msg{Type: "Put_Ack", Src: s.DirID(), Dst: 0, Req: NoID, Class: 1}); err != nil {
		t.Fatal(err)
	}
	ds := s.Net.Deliverables()
	if len(ds) != 1 {
		t.Fatalf("deliverables = %v, want the one Put_Ack", ds)
	}
	if s.Accepts(ds[0]) {
		t.Error("cache 0 in I accepts a Put_Ack it has no transition for")
	}
	if !s.deliverEnabled(&ds[0].Msg) {
		t.Error("the checker must keep the unmatched delivery enabled so Apply reports it")
	}
}

// silentDirSSP's directory consumes a GetS and never answers: the
// requesting cache waits in a transient state with nothing in flight.
const silentDirSSP = `
protocol SilentDir;
network ordered;

message request GetS;
message response Data;

machine cache {
  states I S;
  init I;
  data block;
}

machine directory {
  states I;
  init I;
  data block;
  id owner;
}

architecture cache {
  process (I, load) {
    send GetS to dir;
    await {
      when Data {
        copydata;
        state = S;
      }
    }
  }
  process (S, load) { hit; }
}

architecture directory {
  process (I, GetS) { }
}
`

// TestWarm: warming converges to a quiescent system with a readable
// copy, is a no-op on a cache that already hits, and reports a wedged
// warm-up instead of spinning.
func TestWarm(t *testing.T) {
	s := system(t, protocols.MSI, core.NonStallingOpts())
	for i := 0; i < 2; i++ { // the second call takes the hit path
		if err := s.Warm(1); err != nil {
			t.Fatal(err)
		}
		if s.Caches[1].State != "S" || s.Net.InFlight() != 0 {
			t.Fatalf("after Warm: state %s with %d messages in flight, want S and none",
				s.Caches[1].State, s.Net.InFlight())
		}
	}

	stuck := system(t, silentDirSSP, core.NonStallingOpts())
	err := stuck.Warm(0)
	if err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Errorf("Warm against a directory that never answers = %v, want a stuck report", err)
	}
}
