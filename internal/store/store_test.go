package store

import (
	"fmt"
	"sync"
	"testing"
)

// splitmix64 generates well-dispersed deterministic test fingerprints.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func TestInsertLookup(t *testing.T) {
	tbl := New()
	const n = 50_000 // forces many per-shard resizes past minSlots
	for i := 0; i < n; i++ {
		fp := splitmix64(uint64(i))
		if _, ok := tbl.Lookup(fp, nil); ok {
			t.Fatalf("fp %d present before insert", i)
		}
		tbl.Insert(fp, "", int32(i))
	}
	if got := tbl.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		idx, ok := tbl.Lookup(splitmix64(uint64(i)), nil)
		if !ok || idx != int32(i) {
			t.Fatalf("fp %d: got (%d, %v), want (%d, true)", i, idx, ok, i)
		}
	}
	for i := n; i < n+1000; i++ {
		if _, ok := tbl.Lookup(splitmix64(uint64(i)), nil); ok {
			t.Fatalf("uninserted fp %d reported present", i)
		}
	}
}

func TestDuplicateInsertKeepsFirstIndex(t *testing.T) {
	tbl := New()
	tbl.Insert(42, "", 7)
	tbl.Insert(42, "", 99)
	if idx, ok := tbl.Lookup(42, nil); !ok || idx != 7 {
		t.Fatalf("got (%d, %v), want (7, true)", idx, ok)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

func TestZeroFingerprint(t *testing.T) {
	tbl := New()
	if _, ok := tbl.Lookup(0, nil); ok {
		t.Fatal("empty table reports fp 0 present")
	}
	tbl.Insert(0, "", 3)
	if idx, ok := tbl.Lookup(0, nil); !ok || idx != 3 {
		t.Fatalf("fp 0: got (%d, %v), want (3, true)", idx, ok)
	}
	// fp 0 aliases zeroSub by construction; both resolve to one entry.
	if idx, ok := tbl.Lookup(zeroSub, nil); !ok || idx != 3 {
		t.Fatalf("zeroSub: got (%d, %v), want (3, true)", idx, ok)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

// TestExactCollisions: on an exact table a fingerprint match is not a
// membership answer. A colliding Lookup is absent, a colliding Insert is
// fresh and counted once, re-offering a stored state never recounts, and
// a plain table — which cannot tell — never counts.
func TestExactCollisions(t *testing.T) {
	tbl := NewExact()
	if idx, fresh := tbl.Insert(77, "state-A", 0); idx != 0 || !fresh {
		t.Fatalf("first insert = (%d, %v), want (0, true)", idx, fresh)
	}
	if idx, ok := tbl.Lookup(77, []byte("state-A")); !ok || idx != 0 {
		t.Fatalf("state-A: got (%d, %v), want (0, true)", idx, ok)
	}
	if _, ok := tbl.Lookup(77, []byte("state-B")); ok {
		t.Fatal("a different state on the same fingerprint must be absent")
	}
	if tbl.Collisions() != 0 {
		t.Fatalf("lookups counted %d collisions; only stored states count", tbl.Collisions())
	}
	if idx, fresh := tbl.Insert(77, "state-B", 1); idx != 1 || !fresh {
		t.Fatalf("colliding insert = (%d, %v), want (1, true)", idx, fresh)
	}
	if tbl.Collisions() != 1 || tbl.Len() != 2 {
		t.Fatalf("collisions/len = %d/%d, want 1/2", tbl.Collisions(), tbl.Len())
	}
	// Re-offering either state (once per incoming edge in the checker)
	// finds it under its first index and counts nothing.
	for i, key := range []string{"state-A", "state-B", "state-B"} {
		want := int32(min(i, 1))
		if idx, fresh := tbl.Insert(77, key, 9); idx != want || fresh {
			t.Fatalf("re-insert %s = (%d, %v), want (%d, false)", key, idx, fresh, want)
		}
	}
	if tbl.Collisions() != 1 || tbl.Len() != 2 {
		t.Fatalf("re-inserts moved collisions/len to %d/%d", tbl.Collisions(), tbl.Len())
	}
	// A third state on the fingerprint is one more collision, not two.
	tbl.Insert(77, "state-C", 2)
	if idx, ok := tbl.Lookup(77, []byte("state-C")); !ok || idx != 2 || tbl.Collisions() != 2 {
		t.Fatalf("state-C: got (%d, %v) with %d collisions, want (2, true) with 2", idx, ok, tbl.Collisions())
	}

	plain := New()
	plain.Insert(77, "state-A", 0)
	if idx, fresh := plain.Insert(77, "state-B", 1); idx != 0 || fresh {
		t.Fatalf("plain table colliding insert = (%d, %v), want the merge (0, false)", idx, fresh)
	}
	if _, ok := plain.Lookup(77, []byte("state-B")); !ok || plain.Collisions() != 0 || plain.Len() != 1 {
		t.Fatalf("plain table must merge on the fingerprint and count nothing (collisions %d, len %d)",
			plain.Collisions(), plain.Len())
	}
}

// TestExactMatchesMapOracle drives an exact table and a plain
// map[string]int32 — the visited set exact mode used to be — with one
// seeded stream of (fingerprint, key) pairs in which a third of the keys
// are forced onto a handful of shared fingerprints, 0 and zeroSub among
// them, through several doublings of the shards those land in. The
// table must agree with the map on membership before every insert, on
// first-index-wins, and on Len; and Collisions must equal exactly the
// number of states hash compaction would lose: distinct keys minus
// distinct (normalized) fingerprints. Merging a collider fails the
// membership half, miscounting one fails the last.
func TestExactMatchesMapOracle(t *testing.T) {
	shared := []uint64{0, zeroSub, 1, 1 << 63, 0xdeadbeef}
	const (
		distinct = 12_000 // 4000 of them on the five shared fingerprints
		offers   = 40_000
	)
	stateOf := func(k uint64) (uint64, string) {
		fp := splitmix64(k)
		if k%3 == 0 {
			fp = shared[k/3%uint64(len(shared))]
		}
		return fp, fmt.Sprintf("state-%d", k)
	}
	tbl := NewExact()
	oracle := make(map[string]int32)
	fps := make(map[uint64]bool)
	rng := uint64(2018)
	for n := 0; n < offers; n++ {
		rng = splitmix64(rng)
		fp, key := stateOf(rng % distinct)
		want, seen := oracle[key]
		if idx, ok := tbl.Lookup(fp, []byte(key)); ok != seen || (ok && idx != want) {
			t.Fatalf("offer %d: Lookup(%s) = (%d, %v), oracle (%d, %v)", n, key, idx, ok, want, seen)
		}
		// Offer the next free index, as the checker does: a state already
		// stored must come back under its first one.
		next := int32(len(oracle))
		if !seen {
			want, oracle[key], fps[normalize(fp)] = next, next, true
		}
		if idx, fresh := tbl.Insert(fp, key, next); fresh == seen || idx != want {
			t.Fatalf("offer %d: Insert(%s) = (%d, %v), want (%d, %v)", n, key, idx, fresh, want, !seen)
		}
		if tbl.Len() != len(oracle) {
			t.Fatalf("offer %d: Len = %d, oracle holds %d", n, tbl.Len(), len(oracle))
		}
	}
	for k := uint64(0); k < distinct; k++ {
		fp, key := stateOf(k)
		want, seen := oracle[key]
		if idx, ok := tbl.Lookup(fp, []byte(key)); ok != seen || (ok && idx != want) {
			t.Fatalf("after the stream: Lookup(%s) = (%d, %v), oracle (%d, %v)", key, idx, ok, want, seen)
		}
	}
	if got, want := tbl.Collisions(), len(oracle)-len(fps); got != want || want == 0 {
		t.Fatalf("Collisions = %d, want %d distinct keys - %d distinct fingerprints = %d (non-zero)",
			got, len(oracle), len(fps), want)
	}
}

func TestBytesGrowWithLoad(t *testing.T) {
	tbl := New()
	empty := tbl.Bytes()
	if empty != shardCount*minSlots*12 {
		t.Fatalf("empty Bytes = %d, want %d", empty, shardCount*minSlots*12)
	}
	const n = 20_000
	for i := 0; i < n; i++ {
		tbl.Insert(splitmix64(uint64(i)), "", int32(i))
	}
	got := tbl.Bytes()
	if got <= empty {
		t.Fatalf("Bytes did not grow: %d", got)
	}
	// ≤75% load over 12-byte slots bounds the footprint at 32 B/state
	// once the table is past its fixed minimum.
	if perState := float64(got) / n; perState > 32 {
		t.Fatalf("bytes/state = %.1f, want ≤ 32", perState)
	}
}

func TestConcurrentLookups(t *testing.T) {
	tbl := New()
	const n = 10_000
	for i := 0; i < n; i++ {
		tbl.Insert(splitmix64(uint64(i)), "", int32(i))
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				idx, ok := tbl.Lookup(splitmix64(uint64(i)), nil)
				if !ok || idx != int32(i) {
					select {
					case errc <- fmt.Errorf("goroutine %d: fp %d got (%d, %v)", g, i, idx, ok):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
