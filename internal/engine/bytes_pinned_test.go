package engine_test

// Byte pinning against a known-good tree. CanonicalBrute shares encodeNet
// (and the snapshot shares appendMsg) with the code it is the oracle for,
// so the differential tests cannot see a change that alters both sides the
// same way, or one that makes the encoding non-injective. This test can:
// it hashes what the encoder, the snapshot and the rule enumeration emit
// along the seeded walks the differential tests take and compares the
// digests with recorded literals.
//
// The anchor is commit fac9266 (the last tree with the per-queue network
// grid, map-keyed layouts and FNV-1a keys). Its keys wrote one length
// prefix per ordered queue, empties included; keys now write the count
// of messages in flight and the messages. AppendDenseKey (export_test.go)
// still writes the old section, so its digests are held to the fac9266
// literals, and the live keys are held to it by partition: over the same
// walk states, two states share a live key exactly when they share a
// reference key. The walks never differ only behind a queue's head, so
// TestKeySeparatesFIFOTails checks that case on hand-built states.
//
// The walks pick rules[rng.Intn(len(rules))], so a change in rule order
// also moves every later state and shows in all the digests.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/engine"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

// The live digests, recorded when keys came to hold only the messages in
// flight. The snapshot and rules
// digests are fac9266's and did not move.
const (
	pinnedKeyDigest       = "bff5e956374aa96f843912e07acd7898df07a584b350ae20c346da633b76c7ee"
	pinnedCanonicalDigest = "78f165bd13b7e81025b8968425ae66e3ae468d69b50831d2848f7ba279469d58"
	pinnedSnapshotDigest  = "1419b0571486566bda1b294f6790bd569578475017ba25254bbf7ed3c1bd2e4c"
	pinnedRulesDigest     = "5c1a5c166189caf847d5caeb44337a3d82f9ae75008d38c2e7b9c79f4ae4e419"
)

// Recorded by running this test on fac9266: AppendDenseKey's digests
// reproduce them.
const (
	pinnedDenseKeyDigest       = "93fcfbdee0e2b2105a866a916939feacb50f0545ac77bb8d72d237606194db8d"
	pinnedDenseCanonicalDigest = "67dfb59b748c79133be284ca92662b648234b93471eb627c27e68b217476ab92"
)

// Total Canonical key bytes over the walks, live and reference: what a
// visited set of these states would hold in its key column.
const (
	pinnedCanonicalBytes      = 956_727
	pinnedDenseCanonicalBytes = 1_750_527
)

// writeRecord hashes one length-prefixed record, so the digest of a
// sequence determines the sequence.
func writeRecord(h hash.Hash, b []byte) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	h.Write(n[:])
	h.Write(b)
}

// samePartition checks that live and reference keys of one configuration
// name the same states: live→reference and reference→live are both
// functions.
type samePartition struct{ fwd, back map[string]string }

func (sp *samePartition) add(t *testing.T, what string, live, ref []byte) {
	t.Helper()
	if r, ok := sp.fwd[string(live)]; ok && r != string(ref) {
		t.Fatalf("%s: one live key, two reference keys (live %x)", what, live)
	}
	if l, ok := sp.back[string(ref)]; ok && l != string(live) {
		t.Fatalf("%s: one reference key, two live keys (reference %x)", what, ref)
	}
	sp.fwd[string(live)], sp.back[string(ref)] = string(ref), string(live)
}

func TestKeyAndSnapshotBytesPinned(t *testing.T) {
	keys, canon, snaps, ruleH := sha256.New(), sha256.New(), sha256.New(), sha256.New()
	denseKeys, denseCanon := sha256.New(), sha256.New()
	states, canonBytes, denseCanonBytes := 0, 0, 0
	var snap, rec, dense, denseMin []byte
	eachRegistryProtocol(t, func(label string, p *ir.Protocol) {
		enc := engine.NewEncoder(p)
		for _, caches := range []int{2, 3, 4} {
			perms := engine.Permutations(caches)
			keyPart := samePartition{map[string]string{}, map[string]string{}}
			canonPart := samePartition{map[string]string{}, map[string]string{}}
			what := fmt.Sprintf("%s, %d caches", label, caches)
			for seed := int64(0); seed < 6; seed++ {
				sys := engine.NewSystem(p, engine.Config{Caches: caches, Capacity: 6, Values: 2})
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 60; i++ {
					states++
					key := enc.Key(sys)
					writeRecord(keys, key)
					dense = enc.AppendDenseKey(dense[:0], sys, nil)
					writeRecord(denseKeys, dense)
					keyPart.add(t, what+", Key", key, dense)

					key = enc.Canonical(sys, perms)
					writeRecord(canon, key)
					canonBytes += len(key)
					denseMin = denseMin[:0]
					for j, perm := range perms {
						dense = enc.AppendDenseKey(dense[:0], sys, perm)
						if j == 0 || bytes.Compare(dense, denseMin) < 0 {
							denseMin = append(denseMin[:0], dense...)
						}
					}
					writeRecord(denseCanon, denseMin)
					denseCanonBytes += len(denseMin)
					canonPart.add(t, what+", Canonical", key, denseMin)

					snap = sys.AppendSnapshot(snap[:0])
					writeRecord(snaps, snap)
					rules := sys.Rules()
					rec = rec[:0]
					for _, r := range rules {
						rec = append(rec, byte(r.Del.Queue), byte(r.Del.Queue>>8), byte(r.Del.Pos))
						rec = append(rec, r.String()...)
						rec = append(rec, 0)
					}
					writeRecord(ruleH, rec)
					if len(rules) == 0 {
						break
					}
					if _, err := sys.Apply(rules[rng.Intn(len(rules))]); err != nil {
						break // defect shapes end the walk, as in walkDiff
					}
				}
			}
		}
	})
	t.Logf("%d states hashed; Canonical key bytes %d, reference %d", states, canonBytes, denseCanonBytes)
	for _, d := range []struct {
		name string
		h    hash.Hash
		want string
	}{
		{"Encoder.Key", keys, pinnedKeyDigest},
		{"Encoder.Canonical", canon, pinnedCanonicalDigest},
		{"AppendDenseKey", denseKeys, pinnedDenseKeyDigest},
		{"AppendDenseKey minimum", denseCanon, pinnedDenseCanonicalDigest},
		{"AppendSnapshot", snaps, pinnedSnapshotDigest},
		{"Rules", ruleH, pinnedRulesDigest},
	} {
		if got := hex.EncodeToString(d.h.Sum(nil)); got != d.want {
			t.Errorf("%s bytes moved: digest %s, pinned %s", d.name, got, d.want)
		}
	}
	if canonBytes != pinnedCanonicalBytes || denseCanonBytes != pinnedDenseCanonicalBytes {
		t.Errorf("Canonical key bytes %d (reference %d), pinned %d (%d)",
			canonBytes, denseCanonBytes, pinnedCanonicalBytes, pinnedDenseCanonicalBytes)
	}
}

// TestKeySeparatesFIFOTails: the walks never hold two states that differ
// only behind a queue's head, so the partition check above cannot see an
// encoder that drops or reorders the messages after a head. These
// hand-built ordered networks (3-cache non-stalling MSI, requests to the
// directory) differ only there or in how the same messages split into
// FIFOs; every two of them must differ in Key and in Canonical. The last
// one is the first with caches 0 and 1 swapped: its Key differs, its
// Canonical must not.
func TestKeySeparatesFIFOTails(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Ordered {
		t.Fatal("MSI's network is not ordered")
	}
	var reqs []ir.MsgDecl
	for _, d := range p.Msgs {
		if d.Class == ir.ClassRequest {
			reqs = append(reqs, d)
		}
	}
	if len(reqs) < 2 {
		t.Fatalf("MSI declares %d request types, want 2", len(reqs))
	}
	const caches = 3
	msg := func(d ir.MsgDecl, src, data int) engine.Msg {
		return engine.Msg{Type: string(d.Type), Src: src, Dst: caches, Req: engine.NoID, Data: data, Class: int(d.Class)}
	}
	a, b := reqs[0], reqs[1]
	states := [][]engine.Msg{
		{msg(a, 0, 0), msg(b, 0, 0)},
		{msg(a, 0, 0), msg(b, 0, 1)}, // tail's data differs
		{msg(a, 0, 0), msg(a, 0, 0)}, // tail's type differs
		{msg(b, 0, 0), msg(a, 0, 0)}, // same messages, other order
		{msg(a, 0, 0)},               // no tail
		{msg(a, 0, 0), msg(b, 1, 0)}, // tail on another FIFO
	}
	twin := []engine.Msg{msg(a, 1, 0), msg(b, 1, 0)} // states[0], caches 0 and 1 swapped
	enc := engine.NewEncoder(p)
	perms := engine.Permutations(caches)
	build := func(msgs []engine.Msg) (key, canon string) {
		t.Helper()
		sys := engine.NewSystem(p, engine.Config{Caches: caches, Capacity: 6, Values: 2})
		for _, m := range msgs {
			if err := sys.Net.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		key = string(enc.Key(sys)) // copied before Canonical reuses the buffer
		return key, string(enc.Canonical(sys, perms))
	}
	keys, canons := map[string]int{}, map[string]int{}
	for i, msgs := range states {
		key, canon := build(msgs)
		if j, ok := keys[key]; ok {
			t.Errorf("states %d and %d share a Key", j, i)
		}
		if j, ok := canons[canon]; ok {
			t.Errorf("states %d and %d share a Canonical", j, i)
		}
		keys[key], canons[canon] = i, i
	}
	key, canon := build(twin)
	if j, ok := keys[key]; ok {
		t.Errorf("the swapped twin shares a Key with state %d", j)
	}
	if j, ok := canons[canon]; !ok || j != 0 {
		t.Errorf("the swapped twin's Canonical is not state 0's (matched %d, %v)", j, ok)
	}
}
