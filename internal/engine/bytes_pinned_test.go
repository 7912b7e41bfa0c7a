package engine_test

// Byte pinning against a known-good tree. CanonicalBrute shares encodeNet
// (and the snapshot shares appendMsg) with the code it is the oracle for,
// so the differential tests cannot see a change that alters both sides the
// same way, or one that makes the encoding non-injective. This test can:
// it hashes what the encoder, the snapshot and the rule enumeration emit
// along the seeded walks the differential tests take and compares the
// digests with literals recorded on commit fac9266 (the last tree with the
// per-queue network grid, map-keyed layouts and FNV-1a keys).
//
// The walks pick rules[rng.Intn(len(rules))], so a change in rule order
// also moves every later state and shows in all four digests.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"protogen/internal/engine"
	"protogen/internal/ir"
)

// Recorded by running this test on fac9266.
const (
	pinnedKeyDigest       = "93fcfbdee0e2b2105a866a916939feacb50f0545ac77bb8d72d237606194db8d"
	pinnedCanonicalDigest = "67dfb59b748c79133be284ca92662b648234b93471eb627c27e68b217476ab92"
	pinnedSnapshotDigest  = "1419b0571486566bda1b294f6790bd569578475017ba25254bbf7ed3c1bd2e4c"
	pinnedRulesDigest     = "5c1a5c166189caf847d5caeb44337a3d82f9ae75008d38c2e7b9c79f4ae4e419"
)

// writeRecord hashes one length-prefixed record, so the digest of a
// sequence determines the sequence.
func writeRecord(h hash.Hash, b []byte) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	h.Write(n[:])
	h.Write(b)
}

func TestKeyAndSnapshotBytesPinned(t *testing.T) {
	keys, canon, snaps, ruleH := sha256.New(), sha256.New(), sha256.New(), sha256.New()
	states := 0
	var snap, rec []byte
	eachRegistryProtocol(t, func(label string, p *ir.Protocol) {
		enc := engine.NewEncoder(p)
		for _, caches := range []int{2, 3, 4} {
			perms := engine.Permutations(caches)
			for seed := int64(0); seed < 6; seed++ {
				sys := engine.NewSystem(p, engine.Config{Caches: caches, Capacity: 6, Values: 2})
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 60; i++ {
					states++
					writeRecord(keys, enc.Key(sys))
					writeRecord(canon, enc.Canonical(sys, perms))
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
	t.Logf("%d states hashed", states)
	for _, d := range []struct {
		name string
		h    hash.Hash
		want string
	}{
		{"Encoder.Key", keys, pinnedKeyDigest},
		{"Encoder.Canonical", canon, pinnedCanonicalDigest},
		{"AppendSnapshot", snaps, pinnedSnapshotDigest},
		{"Rules", ruleH, pinnedRulesDigest},
	} {
		if got := hex.EncodeToString(d.h.Sum(nil)); got != d.want {
			t.Errorf("%s bytes moved: digest %s, pinned %s", d.name, got, d.want)
		}
	}
}
