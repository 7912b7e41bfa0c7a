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

// TestExactArenaRoundTrip: exact keys of every length from empty to
// several chunks come back byte for byte, whether they fill a chunk to
// its end, open the next one or get one of their own; a fingerprint
// twin with a different key is stored beside its twin and counted once;
// and Bytes counts every chunk at its capacity plus a position per state.
func TestExactArenaRoundTrip(t *testing.T) {
	const chunk = 1 << chunkBits
	lengths := []int{0, 1, 54, 0, chunk - 3, 5, chunk, chunk + 1, 0, 3*chunk + 7, 2, chunk - 1, 1, 0, 69}
	for i := 0; i < 3000; i++ {
		lengths = append(lengths, 40+i%50) // fills the doubling chunks and several full-size ones
	}
	fpOf := func(i int) uint64 {
		if i == 3 {
			i = 2 // key 3 is key 2's fingerprint twin
		}
		return splitmix64(uint64(i))
	}
	tbl := NewExact()
	keys := make([][]byte, len(lengths))
	for i, n := range lengths {
		keys[i] = make([]byte, n)
		for j := range keys[i] {
			keys[i][j] = byte(splitmix64(uint64(i)<<32 | uint64(j)))
		}
		if idx, fresh := tbl.InsertBytes(fpOf(i), keys[i], int32(i)); idx != int32(i) || !fresh {
			t.Fatalf("key %d (%d B): insert = (%d, %v), want (%d, true)", i, n, idx, fresh, i)
		}
	}
	if tbl.Len() != len(keys) || tbl.Collisions() != 1 {
		t.Fatalf("len/collisions = %d/%d, want %d/1", tbl.Len(), tbl.Collisions(), len(keys))
	}
	for i, k := range keys {
		fp := fpOf(i)
		if got := tbl.key(int32(i)); string(got) != string(k) {
			t.Fatalf("key %d: %d B stored, %d B inserted, or the bytes differ", i, len(got), len(k))
		}
		if idx, ok := tbl.Lookup(fp, k); !ok || idx != int32(i) {
			t.Fatalf("key %d (%d B): lookup = (%d, %v), want (%d, true)", i, len(k), idx, ok, i)
		}
		if idx, fresh := tbl.Insert(fp, string(k), int32(len(keys))); idx != int32(i) || fresh {
			t.Fatalf("key %d re-offered: (%d, %v), want (%d, false)", i, idx, fresh, i)
		}
		if len(k) > 0 {
			if _, ok := tbl.Lookup(fp, k[:len(k)-1]); ok {
				t.Fatalf("key %d: a proper prefix of it is reported present", i)
			}
		}
	}
	var want int64
	for i := range tbl.shards {
		want += int64(cap(tbl.shards[i].fps))*8 + int64(cap(tbl.shards[i].idxs))*4
	}
	var keyBytes int64
	for _, c := range tbl.chunks {
		want += int64(cap(c))
		keyBytes += int64(len(c))
		if len(c) > chunk && len(c) != cap(c) {
			t.Fatalf("an oversized key's chunk holds %d of %d bytes; it must hold that key alone", len(c), cap(c))
		}
	}
	want += int64(cap(tbl.chunks))*24 + int64(cap(tbl.keyAt))*4
	if got := tbl.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d: chunk capacity, chunk headers, positions and slots", got, want)
	}
	var total int64
	for _, k := range keys {
		total += int64(len(k))
	}
	if keyBytes != total {
		t.Fatalf("the chunks hold %d key bytes, the keys are %d", keyBytes, total)
	}
}

// TestExactInsertOrder: an exact table stores its keys in state-index
// order, so storing a state under any index but the next dense one
// panics and leaves the table usable; re-offering a stored state under
// any index is still an answer, not an error.
func TestExactInsertOrder(t *testing.T) {
	tbl := NewExact()
	tbl.Insert(1, "state-A", 0)
	for _, idx := range []int32{0, 2, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("storing a new state under index %d (next is 1) did not panic", idx)
				}
			}()
			tbl.Insert(2, "state-B", idx)
		}()
	}
	if idx, fresh := tbl.Insert(1, "state-A", 5); idx != 0 || fresh {
		t.Fatalf("re-offer = (%d, %v), want (0, false)", idx, fresh)
	}
	if idx, fresh := tbl.Insert(2, "state-B", 1); idx != 1 || !fresh || tbl.Len() != 2 {
		t.Fatalf("in-order insert after the panics = (%d, %v), len %d; want (1, true), len 2", idx, fresh, tbl.Len())
	}
	// A plain table keeps no keys and takes any index.
	plain := New()
	plain.Insert(1, "", 9)
	if idx, ok := plain.Lookup(1, nil); !ok || idx != 9 {
		t.Fatalf("plain table: (%d, %v), want (9, true)", idx, ok)
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
