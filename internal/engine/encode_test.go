package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

func TestPermutations(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 6, 4: 24} {
		if got := len(Permutations(n)); got != want {
			t.Errorf("Permutations(%d) = %d, want %d", n, got, want)
		}
	}
	// All permutations distinct.
	seen := map[string]bool{}
	for _, p := range Permutations(3) {
		k := ""
		for _, v := range p {
			k += string(rune('0' + v))
		}
		if seen[k] {
			t.Errorf("duplicate permutation %s", k)
		}
		seen[k] = true
	}
}

// TestCanonicalKeyIdentity: with only the identity permutation the
// canonical key equals the plain key.
func TestCanonicalKeyIdentity(t *testing.T) {
	s := randomSystem(t, 3, 17)
	id := [][]int{{0, 1, 2}}
	if string(NewEncoder(s.P).Canonical(s, id)) != string(NewEncoder(s.P).Key(s)) {
		t.Errorf("identity canonical key differs from plain key")
	}
	if string(NewEncoder(s.P).Canonical(s, nil)) != string(NewEncoder(s.P).Key(s)) {
		t.Errorf("nil perms must give the plain key")
	}
}

// TestQuickSymmetryInvariance: property — executing a schedule and its
// cache-role-swapped mirror yields the same canonical key. System A picks
// random rules; system B applies the mirrored rule (access rules swap
// caches 0/1, deliveries target the mirrored message); the two states
// must canonicalize identically at every step.
func TestQuickSymmetryInvariance(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	perms := Permutations(2)
	f := func(seed int64) bool {
		a := NewSystem(p, Config{Caches: 2, Capacity: 6, Values: 2})
		b := NewSystem(p, Config{Caches: 2, Capacity: 6, Values: 2})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 40; i++ {
			rules := a.Rules()
			if len(rules) == 0 {
				break
			}
			r := rules[rng.Intn(len(rules))]
			if _, err := a.Apply(r); err != nil {
				t.Logf("A apply: %v", err)
				return false
			}
			rb, ok := mirrorRule(b, r)
			if !ok {
				t.Logf("no mirror for %s", r)
				return false
			}
			if _, err := b.Apply(rb); err != nil {
				t.Logf("B apply: %v", err)
				return false
			}
			if string(NewEncoder(a.P).Canonical(a, perms)) != string(NewEncoder(b.P).Canonical(b, perms)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// mirrorRule maps a rule of the original system onto the swapped system.
func mirrorRule(b *System, r Rule) (Rule, bool) {
	mirror := func(id int) int {
		switch id {
		case 0:
			return 1
		case 1:
			return 0
		}
		return id
	}
	if r.Kind == RuleAccess {
		return Rule{Kind: RuleAccess, Cache: mirror(r.Cache), Access: r.Access}, true
	}
	m := r.Del.Msg
	for _, cand := range b.Net.Deliverables() {
		cm := cand.Msg
		if cm.Type == m.Type && cm.Src == mirror(m.Src) && cm.Dst == mirror(m.Dst) &&
			cm.Acks == m.Acks && cm.Data == m.Data && cm.HasData == m.HasData &&
			((cm.Req == NoID && m.Req == NoID) || cm.Req == mirror(m.Req)) {
			return Rule{Kind: RuleDeliver, Del: cand}, true
		}
	}
	return Rule{}, false
}

// randomSystem runs a short random schedule to reach a non-trivial state.
func randomSystem(t *testing.T, caches int, seed int64) *System {
	t.Helper()
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(p, Config{Caches: caches, Capacity: 6, Values: 2})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 30; i++ {
		rules := s.Rules()
		if len(rules) == 0 {
			break
		}
		if _, err := s.Apply(rules[rng.Intn(len(rules))]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestQuickMaskPermutationRoundTrip: property — permuting a sharer mask
// twice with a permutation and its inverse is the identity.
func TestQuickMaskPermutationRoundTrip(t *testing.T) {
	perms := Permutations(4)
	f := func(mask uint8, pidx uint8) bool {
		perm := perms[int(pidx)%len(perms)]
		inv := make([]int, len(perm))
		for i, v := range perm {
			inv[v] = i
		}
		m := uint32(mask % 16)
		fwd := permMask(m, perm)
		back := permMask(fwd, inv)
		return back == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickFIFOPreserved: property — an ordered network delivers messages
// between a fixed (src, dst, class) in send order, whatever interleaving
// of other traffic occurs.
func TestQuickFIFOPreserved(t *testing.T) {
	f := func(seed int64) bool {
		n := NewNetwork(true, 3, 16)
		rng := rand.New(rand.NewSource(seed))
		sent := 0
		var got []int
		for steps := 0; steps < 60; steps++ {
			if rng.Intn(2) == 0 && sent < 10 {
				if err := n.Send(Msg{Type: "T", Src: 0, Dst: 1, Acks: sent, Class: 1}); err != nil {
					return false
				}
				sent++
				// Unrelated traffic on other pairs.
				_ = n.Send(Msg{Type: "X", Src: 1, Dst: 2, Class: 1})
			} else {
				for _, d := range n.Deliverables() {
					if d.Msg.Dst == 1 && d.Msg.Type == "T" {
						got = append(got, d.Msg.Acks)
						n.Remove(d)
						break
					}
				}
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[i-1]+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

var _ = ir.StateName("") // keep the import for helper reuse

// TestWideMessageFields: fields outside the packed byte range (huge ack
// counts, large data values) must fall back to the escaped encoding
// instead of panicking, and distinct values must yield distinct keys.
func TestWideMessageFields(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	mt := string(p.Msgs[0].Type)
	keys := map[string]int{}
	perms := Permutations(2)
	for _, acks := range []int{0, 300, 70000, -1 << 40} {
		s := NewSystem(p, Config{Caches: 2, Capacity: 6, Values: 2})
		if err := s.Net.Send(Msg{Type: mt, Src: 0, Dst: 1, Req: NoID, Acks: acks, Class: 0}); err != nil {
			t.Fatal(err)
		}
		k := string(NewEncoder(s.P).Canonical(s, perms))
		if prev, dup := keys[k]; dup {
			t.Errorf("acks=%d collides with acks=%d", acks, prev)
		}
		keys[k] = acks
	}
	// A packed and an escaped message in the same queue must coexist.
	s := NewSystem(p, Config{Caches: 2, Capacity: 6, Values: 2})
	_ = s.Net.Send(Msg{Type: mt, Src: 0, Dst: 1, Req: NoID, Acks: 1, Class: 0})
	_ = s.Net.Send(Msg{Type: mt, Src: 0, Dst: 1, Req: NoID, Acks: 99999, Class: 0})
	if string(NewEncoder(s.P).Key(s)) == "" {
		t.Fatal("empty key")
	}
}

// TestFingerprintSeparatesNearKeys: state keys are long runs of small
// bytes that differ in a few positions and often end in a zero byte (a
// packed message's data flag), which is exactly where a word-at-a-time
// hash goes wrong first — a length folded in before the content is
// cancelled by the first word, and a zero-padded tail swallows a trailing
// zero. No two of 300k such keys may share a fingerprint (the chance for a
// sound 64-bit hash is 2⁻²⁹).
func TestFingerprintSeparatesNearKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[uint64]string{}
	add := func(key []byte) {
		t.Helper()
		fp := Fingerprint(key)
		if other, ok := seen[fp]; ok && other != string(key) {
			t.Fatalf("keys %x and %x share fingerprint %#x", other, key, fp)
		}
		seen[fp] = string(key)
	}
	buf := make([]byte, 160)
	for i := 0; i < 100_000; i++ {
		for j := range buf {
			buf[j] = 1
		}
		n := 100 + rng.Intn(60)
		for k := rng.Intn(6); k >= 0; k-- {
			buf[rng.Intn(n)] = byte(rng.Intn(8))
		}
		add(buf[:n])
		// The same key with a zero byte more, and with its first byte
		// moved by what that does to the length.
		buf[n] = 0
		add(buf[:n+1])
		buf[0] ^= byte(n ^ (n + 1))
		add(buf[:n+1])
	}
}
