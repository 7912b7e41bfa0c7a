package engine

import (
	"fmt"

	"protogen/internal/ir"
)

// This file holds the core-side step rules of an in-order core driving
// one System: what it means for an access to hit locally, for a
// message's target to accept it, and for a cache to be warmed into a
// Shared copy. Every scheduler that walks a System one choice at a
// time (sim.RunCtx, the litmus explorer and sampler) shares these
// definitions. The model checker does not: it enumerates Rules().

// TryHit performs access a at cache locally when the current state
// hits it (a load/store/acq hit, or a silent transition that starts no
// transaction), returning the performed value. It reports false, with
// the system untouched, when a would have to start a transaction or is
// stalled.
func (s *System) TryHit(cache int, a ir.AccessType) (bool, int) {
	c := s.Caches[cache]
	ts := c.candidates(c.L.accessEvent(a))
	if len(ts) != 1 || ts[0].Stall {
		return false, 0
	}
	t := ts[0]
	sendsNothing := true
	for i := range t.actions {
		if t.actions[i].Op == ir.ASend {
			sendsNothing = false
		}
	}
	if !t.hit && !(sendsNothing && t.Next != t.From) {
		return false, 0
	}
	performs, err := s.Apply(Rule{Kind: RuleAccess, Cache: cache, Access: a})
	if err != nil {
		return false, 0
	}
	val := 0
	for _, pf := range performs {
		val = pf.Value
	}
	return true, val
}

// Accepts reports whether d's target would accept it right now: some
// transition handles the message in the target's current state and
// none of them stalls.
//
// This is the scheduler's predicate and deliberately not the checker's
// deliverEnabled. A message no transition handles is blocked here — a
// scheduler must not pick it, so a wedged system surfaces as "no
// enabled choice, N messages in flight" — while deliverEnabled reports
// it enabled so that Apply runs and names the unexpected message as a
// protocol error.
func (s *System) Accepts(d Deliverable) bool {
	c := s.ctrlAt(d.Msg.Dst)
	ts := c.candidates(c.L.msgEvent(&d.Msg))
	for _, t := range ts {
		if t.Stall {
			return false
		}
	}
	return len(ts) > 0
}

// Warm drives cache's load to completion deterministically (always
// delivering the first deliverable), so the system ends quiescent with
// the cache holding a readable — and, on consistency-directed
// protocols, stale-able — copy.
func (s *System) Warm(cache int) error {
	if hit, _ := s.TryHit(cache, ir.AccessLoad); hit {
		return nil
	}
	if _, err := s.Apply(Rule{Kind: RuleAccess, Cache: cache, Access: ir.AccessLoad}); err != nil {
		return err
	}
	for i := 0; i < 1000; i++ {
		if c := s.Caches[cache]; c.StIdx >= 0 && c.L.StableAt[c.StIdx] && s.Net.InFlight() == 0 {
			return nil
		}
		ds := s.Net.Deliverables()
		if len(ds) == 0 {
			return fmt.Errorf("warm-up stuck")
		}
		if _, err := s.Apply(Rule{Kind: RuleDeliver, Del: ds[0]}); err != nil {
			return err
		}
	}
	return fmt.Errorf("warm-up did not converge")
}
