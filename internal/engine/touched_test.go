package engine

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestNeverRevertedSystemDoesNotGrow: a simulator or litmus System applies
// rules for ever and never reverts, so what RevertTo needs recorded must
// cost it a few ORs a step and no memory. The touched sets are one word
// each by type; 100k applies later they name nothing outside the topology
// and the System is the size it was built.
func TestNeverRevertedSystemDoesNotGrow(t *testing.T) {
	s := randomSystem(t, 3, 1)
	rng := rand.New(rand.NewSource(9))
	var rules []Rule
	for i := 0; i < 100_000; i++ {
		rules = s.AppendRules(rules[:0])
		if len(rules) == 0 {
			t.Fatalf("step %d: walk ran out of rules", i)
		}
		if _, err := s.Apply(rules[rng.Intn(len(rules))]); err != nil {
			t.Fatal(err)
		}
	}
	if s.touchedCtrl == 0 || s.touchedCtrl>>uint(s.DirID()+1) != 0 {
		t.Fatalf("controller set %b names nodes outside 0..%d (or none)", s.touchedCtrl, s.DirID())
	}
	if nq := s.Net.NumQueues(); s.touchedQ == 0 || (nq < 64 && s.touchedQ>>uint(nq) != 0) {
		t.Fatalf("queue set %b names queues outside 0..%d (or none)", s.touchedQ, nq-1)
	}
	// Both words fit the allocation size class System had without them
	// (176 B): a checker-era frontier of Systems is gone, but the litmus
	// explorer still clones one per world it keeps.
	if sz := unsafe.Sizeof(*s); sz > 176 {
		t.Errorf("System is %d B; the touched words pushed it past its 176 B size class", sz)
	}
}
