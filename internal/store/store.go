// Package store provides the model checker's visited set: one sharded,
// lock-striped, power-of-two open-addressing hash table over 64-bit
// state fingerprints, built by one of two constructors.
//
// New is hash compaction. Explicit-state tools for this domain (Murphi's
// -b, the visited sets in directory-protocol verification flows) retain
// only a fixed-width hash of each state: two states are merged when
// their fingerprints collide, which is unsound in principle but with
// 64-bit fingerprints has expected false-merge count n²/2⁶⁵ — below
// 10⁻⁶ even at ten million states. The table stores one 12-byte slot
// pair (fingerprint + state index) per state at ≤75% load.
//
// NewExact is the same table plus every state's full canonical key (54
// bytes on average at 3 caches, 66-69 at 4), held back to back in one
// append-only byte arena in state-index order: one uint32 position per
// state, and no per-key object for the collector to mark. A fingerprint
// match whose key differs is not a match — probing continues — so
// membership is certain, and every state stored behind such a match is
// counted (Collisions): an exact run measures how many states a
// fingerprint run over the same space would falsely merge. The arena is
// what exact mode costs: measured 3.0-3.2x the plain table's bytes per
// state on 3-cache MSI explorations (87.9 vs 29.6 B/state on bench's
// deep-full, 84.5 vs 26.3 on the capped budget row; the ≥3.1x floor on
// that row is pinned by verify's TestFingerprintBytesReduction).
//
// Layout: fingerprints are distributed over 64 shards by their top six
// bits; within a shard, linear probing over a power-of-two slot array
// indexed by the low bits. Each shard carries its own RWMutex, so
// concurrent readers (the checker's expansion workers) never contend
// across shards. Resizing is incremental at shard granularity: a shard
// doubles independently when it passes the load bound, so any single
// insert rehashes at most 1/64th of the table.
package store

import (
	"bytes"
	"fmt"
	"sync"
)

const (
	shardBits  = 6
	shardCount = 1 << shardBits
	// minSlots is each shard's initial capacity (a power of two).
	minSlots = 64
	// maxLoadNum/maxLoadDen bound the per-shard load factor at 3/4.
	maxLoadNum = 3
	maxLoadDen = 4
)

// The exact table's key arena is a list of chunks, each filled and then
// left as it is: a full chunk is never copied, and a key never straddles
// two. Chunks double from 4 KB, so a small check pays no large fixed
// chunk, up to 32 KB, so the unused end of the last one stays small. A
// key position is its chunk's number above chunkBits and its offset
// below, so uint32 positions address 4 GB of keys; a key longer than a
// chunk gets a chunk of its own.
const (
	firstChunkBits = 12
	chunkBits      = 15
	chunkMask      = 1<<chunkBits - 1
	maxChunks      = 1 << (32 - chunkBits)
)

// zeroSub replaces the fingerprint 0, which marks an empty slot. Any
// state hashing to 0 is indistinguishable from a state hashing to this
// constant — one more two-in-2⁶⁴ coincidence on top of ordinary
// fingerprint collisions.
const zeroSub = 0x9e3779b97f4a7c15

// Table is a concurrent fingerprint → state-index table. Lookups may
// run concurrently with each other; Insert must not run concurrently
// with other operations on the same fingerprint's shard unless
// externally ordered (the checker's level-synchronized BFS guarantees
// this: workers only look up, the single-threaded merge inserts). An
// exact table asks for more — see NewExact.
type Table struct {
	shards [shardCount]shard
	// The exact table's key arena and its counter. Table-level, not per
	// shard, so no shard lock covers them: written only by Insert, under
	// the ordering NewExact demands.
	exact      bool
	chunks     [][]byte // the arena; only the last chunk is appended to
	keyAt      []uint32 // state index → the position of its key
	collisions int
}

type shard struct {
	mu   sync.RWMutex
	fps  []uint64 //protogen:guardedby mu
	idxs []int32  //protogen:guardedby mu
	n    int      //protogen:guardedby mu
}

// New returns an empty fingerprint table: states are identified by
// fingerprint alone and keys are ignored.
func New() *Table {
	t := &Table{}
	for i := range t.shards {
		s := &t.shards[i]
		s.fps = make([]uint64, minSlots)
		s.idxs = make([]int32, minSlots)
	}
	return t
}

// NewExact returns a table that also retains every inserted state's
// full key. States are identified by key; the fingerprint only locates
// them.
//
// Keys are stored in state-index order, so the indices an exact table
// stores must be dense and increasing: the state Insert stores fresh
// must carry the index Len would report, 0 first. Insert panics on any
// other; the checker numbers its states exactly so. A state already
// present may be offered under any index — it keeps its first. The
// arena holds up to 4 GB of keys, what uint32 positions address; Insert
// panics past that.
//
// The arena belongs to the whole table, so the per-shard contract above
// is not enough: on an exact table EVERY Insert must be ordered against
// EVERY Lookup and every other Insert, whatever their shards. The
// checker's BFS level barrier provides exactly that — workers only look
// up while a level expands, and the single-threaded merge inserts
// between levels.
func NewExact() *Table {
	t := New()
	t.exact = true
	return t
}

func (t *Table) shard(fp uint64) *shard {
	return &t.shards[fp>>(64-shardBits)]
}

func normalize(fp uint64) uint64 {
	if fp == 0 {
		return zeroSub
	}
	return fp
}

// Lookup reports the state index recorded for the state with
// fingerprint fp — and, on an exact table, key; a plain table ignores
// key (pass nil).
func (t *Table) Lookup(fp uint64, key []byte) (int32, bool) {
	fp = normalize(fp)
	s := t.shard(fp)
	s.mu.RLock()
	mask := uint64(len(s.fps) - 1)
	for i := fp & mask; s.fps[i] != 0; i = (i + 1) & mask {
		if s.fps[i] != fp {
			continue
		}
		// On an exact table another state's fingerprint twin is no match.
		if idx := s.idxs[i]; !t.exact || bytes.Equal(t.key(idx), key) {
			s.mu.RUnlock()
			return idx, true
		}
	}
	s.mu.RUnlock()
	return 0, false
}

// Insert is InsertBytes for a string key; a plain table ignores key
// (pass "").
func (t *Table) Insert(fp uint64, key string, idx int32) (int32, bool) {
	return t.InsertBytes(fp, []byte(key), idx)
}

// InsertBytes records idx for the state (fp, key) and reports the index
// the state is stored under and whether this call stored it: a state
// already present keeps its first index (state indices are stable). A
// plain table ignores key (pass nil). An exact table copies key into its
// arena, stores a state whose fingerprint is held only by different keys
// alongside them, and counts it once in Collisions.
func (t *Table) InsertBytes(fp uint64, key []byte, idx int32) (int32, bool) {
	fp = normalize(fp)
	s := t.shard(fp)
	s.mu.Lock()
	collided := false
	mask := uint64(len(s.fps) - 1)
	i := fp & mask
	for ; s.fps[i] != 0; i = (i + 1) & mask {
		if s.fps[i] != fp {
			continue
		}
		if first := s.idxs[i]; !t.exact || bytes.Equal(t.key(first), key) {
			s.mu.Unlock()
			return first, false
		}
		collided = true
	}
	if t.exact && int(idx) != len(t.keyAt) {
		s.mu.Unlock()
		panic(fmt.Sprintf("store: exact table stores state %d out of order: the next index is %d", idx, len(t.keyAt)))
	}
	// Growing only for a state known to be new keeps the footprint a
	// function of the stored set, not of how often it was re-offered.
	if (s.n+1)*maxLoadDen > len(s.fps)*maxLoadNum {
		s.growLocked()
		mask = uint64(len(s.fps) - 1)
		for i = fp & mask; s.fps[i] != 0; {
			i = (i + 1) & mask
		}
	}
	s.fps[i] = fp
	s.idxs[i] = idx
	s.n++
	if t.exact {
		t.keyAt = append(t.keyAt, t.appendKey(key))
		if collided {
			t.collisions++
		}
	}
	s.mu.Unlock()
	return idx, true
}

// appendKey copies key to the end of the arena and returns its position.
// A key that does not fit in the last chunk opens the next one; the
// rest of the full chunk stays unused.
func (t *Table) appendKey(key []byte) uint32 {
	n := len(t.chunks)
	if n == 0 || !fits(t.chunks[n-1], len(key)) {
		if n == maxChunks {
			panic("store: exact key arena is full (4 GB of keys)")
		}
		size := 1 << chunkBits
		if n < chunkBits-firstChunkBits {
			size = 1 << (firstChunkBits + n)
		}
		t.chunks = append(t.chunks, make([]byte, 0, max(size, len(key))))
		n++
	}
	c := t.chunks[n-1]
	t.chunks[n-1] = append(c, key...)
	return uint32(n-1)<<chunkBits | uint32(len(c))
}

// fits reports whether a key of n bytes can go at the end of chunk c: it
// must fit in c's capacity and start at an offset a position can hold
// (a chunk given to one oversized key is full once it holds it).
func fits(c []byte, n int) bool {
	return len(c) <= chunkMask && len(c)+n <= cap(c)
}

// key returns stored state idx's key, in place in the arena. It ends
// where the next state's key starts or, when that one opened a new
// chunk, at the end of its own chunk.
func (t *Table) key(idx int32) []byte {
	p := t.keyAt[idx]
	c := t.chunks[p>>chunkBits]
	hi := uint32(len(c))
	if next := int(idx) + 1; next < len(t.keyAt) && t.keyAt[next]>>chunkBits == p>>chunkBits {
		hi = t.keyAt[next] & chunkMask
	}
	return c[p&chunkMask : hi]
}

// growLocked doubles one shard's slot array and rehashes its entries;
// caller holds the write lock. Growth touches only this shard — 1/64th
// of the table — keeping any single insert's pause bounded.
func (s *shard) growLocked() {
	oldFps, oldIdxs := s.fps, s.idxs
	s.fps = make([]uint64, 2*len(oldFps))
	s.idxs = make([]int32, 2*len(oldIdxs))
	mask := uint64(len(s.fps) - 1)
	for j, fp := range oldFps {
		if fp == 0 {
			continue
		}
		i := fp & mask
		for s.fps[i] != 0 {
			i = (i + 1) & mask
		}
		s.fps[i] = fp
		s.idxs[i] = oldIdxs[j]
	}
}

// Len reports the number of states stored: distinct fingerprints in a
// plain table, distinct keys in an exact one.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += s.n
		s.mu.RUnlock()
	}
	return n
}

// Bytes reports the table's allocated footprint: the slot arrays, plus
// — exact table only — the arena's chunks at their capacity, the chunk
// list and the key positions.
func (t *Table) Bytes() int64 {
	b := int64(cap(t.chunks))*24 + int64(cap(t.keyAt))*4 // 24: one slice header
	for _, c := range t.chunks {
		b += int64(cap(c))
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		b += int64(cap(s.fps))*8 + int64(cap(s.idxs))*4
		s.mu.RUnlock()
	}
	return b
}

// Collisions reports how many stored states share their fingerprint
// with an earlier, different state — the states a plain table would
// have merged away. Always 0 for a plain table, which cannot tell.
func (t *Table) Collisions() int { return t.collisions }
