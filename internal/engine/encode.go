package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"protogen/internal/ir"
)

// Permutations returns all permutations of {0..n-1}, used for symmetry
// reduction over cache identities (the Murphi scalarset equivalent). The
// identity permutation is always first.
func Permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

// Encoder renders System states as compact binary keys for the model
// checker's visited set. The encoding is injective for a fixed protocol
// and system configuration: every variable-length section (defer queues,
// network bags, the ordered network's messages in flight) is
// length-prefixed, every scalar is written through the self-delimiting
// putInt form, and messages pack into single uint64 words written
// big-endian so byte order equals numeric order.
//
// An Encoder owns reusable scratch buffers and is NOT safe for concurrent
// use; give each checker worker its own.
type Encoder struct {
	typeIdx map[string]int
	buf     []byte   // encoding under construction
	best    []byte   // minimal encoding seen so far (Canonical)
	bag     []uint64 // unordered-network sort scratch
	ord     []uint64 // ordered-network sort scratch (encodeNet)
	inv     []int    // inverse permutation scratch (encodeSys)
	secs    [][]byte // per-cache section scratch (signature sort)
	order   []int    // cache indices in sorted-section order
	perm    []int    // candidate permutation scratch (perm[old] = new)
	rest    []byte   // dir+net suffix under the candidate permutation
	restMin []byte   // minimal suffix over tie-group candidates
	stats   CanonStats
}

// CanonStats counts which canonicalization strategy each Canonical call
// took. Fast + TieStates + Fallbacks equals the number of symmetry-reduced
// Canonical calls; TieEncodes is the extra work ties cost.
type CanonStats struct {
	// Fast counts states canonicalized with a single full encoding:
	// every cache section pure and all section signatures distinct.
	Fast uint64
	// TieStates counts states with at least one group of caches whose
	// sections were byte-identical; the canonical suffix was found by
	// enumerating orderings within those groups only.
	TieStates uint64
	// TieEncodes counts candidate orderings tried across all tie states
	// (each costs one directory+network suffix encoding, not a full
	// state encoding).
	TieEncodes uint64
	// Fallbacks counts states where some cache section embeds a
	// remappable cache id (a VID variable, sharer-mask bit or deferred
	// message naming another cache), forcing the full n!-permutation
	// search for exactness.
	Fallbacks uint64
}

// Add accumulates o into s (for summing per-worker encoder stats).
func (s *CanonStats) Add(o CanonStats) {
	s.Fast += o.Fast
	s.TieStates += o.TieStates
	s.TieEncodes += o.TieEncodes
	s.Fallbacks += o.Fallbacks
}

// Stats returns the canonicalization counters accumulated so far.
func (e *Encoder) Stats() CanonStats { return e.stats }

// NewEncoder builds an encoder for systems instantiated from p.
func NewEncoder(p *ir.Protocol) *Encoder {
	e := &Encoder{typeIdx: make(map[string]int, len(p.Msgs))}
	for i, d := range p.Msgs {
		e.typeIdx[string(d.Type)] = i
	}
	return e
}

// Key encodes the state with cache identities unchanged. The returned
// slice aliases the encoder's scratch buffer and is valid until the next
// Key/Canonical call.
func (e *Encoder) Key(s *System) []byte {
	e.encodeSys(s, nil)
	return e.buf
}

// Canonical returns the lexicographically smallest encoding of the system
// state over the given cache-identity permutations — the symmetry-reduced
// key (caches are interchangeable; the directory is not permuted). Passing
// nil or only the identity gives the plain key. The returned slice aliases
// encoder scratch and is valid until the next Key/Canonical call.
//
// The result is bit-identical to CanonicalBrute's minimum over all perms,
// but the common case costs one encoding instead of n!. The argument:
// a cache section is "pure" when it embeds no remappable cache id (no VID
// variable holding a cache, no low sharer-mask bit, no deferred message
// naming a cache), so its bytes are the same under every permutation; and
// sections are prefix-free (same self-delimiting field sequence, so two
// distinct sections differ at a byte both possess). The minimal full
// encoding therefore places pure sections in sorted byte order — any
// unsorted adjacent pair could be swapped for a strictly smaller encoding,
// with the first difference landing inside the swapped section, before the
// directory/network suffix can matter. Freedom remains only inside groups
// of byte-identical sections, where the directory+network suffix decides:
// those orderings (the product of tie-group factorials, usually 1) are
// enumerated. Any impure section voids the argument, so such states take
// the full brute-force search (CanonStats.Fallbacks counts them).
//
// The sorting argument minimizes over the FULL symmetric group, so the
// fast path engages only when perms has all n! permutations (what
// Permutations(n) produces — the checker's only configuration); a
// proper subset would define a coarser equivalence that sorting must
// not widen, so it takes CanonicalBrute over exactly the given perms.
func (e *Encoder) Canonical(s *System, perms [][]int) []byte {
	n := len(s.Caches)
	if len(perms) <= 1 || n <= 1 {
		return e.Key(s)
	}
	if len(perms) != factorial(n) {
		return e.CanonicalBrute(s, perms)
	}
	for _, c := range s.Caches {
		if !sectionPure(c, n) {
			e.stats.Fallbacks++
			return e.CanonicalBrute(s, perms)
		}
	}
	// Encode each cache's section once: pure sections encode identically
	// under every permutation, so the identity rendering is THE section.
	if cap(e.secs) < n {
		e.secs = make([][]byte, n)
	}
	e.secs = e.secs[:n]
	for i, c := range s.Caches {
		e.secs[i] = e.encodeCtrl(e.secs[i][:0], c, nil)
	}
	e.order = e.order[:0]
	for i := 0; i < n; i++ {
		e.order = append(e.order, i)
	}
	slices.SortStableFunc(e.order, func(a, b int) int {
		return bytes.Compare(e.secs[a], e.secs[b])
	})
	// The canonical cache prefix is fixed now; build it in e.buf.
	b := e.buf[:0]
	for _, old := range e.order {
		b = append(b, e.secs[old]...)
	}
	e.buf = b
	if cap(e.perm) < n {
		e.perm = make([]int, n)
	}
	e.perm = e.perm[:n]
	for pos, old := range e.order {
		e.perm[old] = pos
	}
	ties := false
	for j := 1; j < n; j++ {
		if bytes.Equal(e.secs[e.order[j]], e.secs[e.order[j-1]]) {
			ties = true
			break
		}
	}
	if !ties {
		e.stats.Fast++
		e.buf = e.encodeRest(e.buf, s, e.perm)
		return e.buf
	}
	// Tie groups: identical sections make the prefix insensitive to their
	// internal order, so enumerate orderings within each group and keep
	// the minimal directory+network suffix.
	e.stats.TieStates++
	prefix := len(e.buf)
	e.restMin = e.restMin[:0]
	e.tieGroups(s, 0)
	e.buf = append(e.buf[:prefix], e.restMin...)
	return e.buf
}

// tieGroups recurses over runs of byte-identical sections starting at
// sorted position from, permuting e.order within each run; at each leaf
// the full candidate permutation's suffix is encoded and the minimum kept.
func (e *Encoder) tieGroups(s *System, from int) {
	n := len(e.order)
	if from >= n {
		e.stats.TieEncodes++
		for pos, old := range e.order {
			e.perm[old] = pos
		}
		e.rest = e.encodeRest(e.rest[:0], s, e.perm)
		if len(e.restMin) == 0 || bytes.Compare(e.rest, e.restMin) < 0 {
			e.rest, e.restMin = e.restMin, e.rest
		}
		return
	}
	end := from + 1
	for end < n && bytes.Equal(e.secs[e.order[end]], e.secs[e.order[from]]) {
		end++
	}
	if end-from == 1 {
		e.tieGroups(s, end)
		return
	}
	var rec func(k int)
	rec = func(k int) {
		if k == end {
			e.tieGroups(s, end)
			return
		}
		for i := k; i < end; i++ {
			e.order[k], e.order[i] = e.order[i], e.order[k]
			rec(k + 1)
			e.order[k], e.order[i] = e.order[i], e.order[k]
		}
	}
	rec(from)
}

// factorial(n) for the cache counts a model checker can face; saturates
// far above any realistic permutation-list length.
func factorial(n int) int {
	f := 1
	for i := 2; i <= n && f < 1<<40; i++ {
		f *= i
	}
	return f
}

// sectionPure reports whether cache c's encoded section is independent of
// the cache-identity permutation: no VID variable holding a cache id, no
// sharer-mask bit below n, and no deferred message whose src/dst/req names
// a cache (the directory id and NoID pass every permutation unchanged).
func sectionPure(c *Ctrl, n int) bool {
	for i, v := range c.Ints {
		if c.L.IntIsVID[i] && v >= 0 && v < n {
			return false
		}
	}
	low := uint32(1)<<uint(n) - 1
	for _, m := range c.Masks {
		if m&low != 0 {
			return false
		}
	}
	for i := range c.DeferQ {
		d := &c.DeferQ[i]
		if (d.Src >= 0 && d.Src < n) || (d.Dst >= 0 && d.Dst < n) || (d.Req >= 0 && d.Req < n) {
			return false
		}
	}
	return true
}

// CanonicalBrute is the reference canonicalization: encode the state under
// every permutation and keep the lexicographic minimum. O(n!) per state —
// Canonical's impure-state fallback and the differential-test oracle that
// pins Canonical's output bit-for-bit. The returned slice aliases encoder
// scratch and is valid until the next Key/Canonical call.
func (e *Encoder) CanonicalBrute(s *System, perms [][]int) []byte {
	if len(perms) <= 1 {
		return e.Key(s)
	}
	e.best = e.best[:0]
	for _, p := range perms {
		e.encodeSys(s, p)
		if len(e.best) == 0 || bytes.Compare(e.buf, e.best) < 0 {
			e.buf, e.best = e.best, e.buf
		}
	}
	return e.best
}

// encodeSys writes the full system encoding into e.buf. A nil perm means
// identity. With a permutation, caches are emitted in renumbered order and
// every embedded node id (VID variables, id-set masks, message fields) is
// remapped, so symmetric states encode identically.
func (e *Encoder) encodeSys(s *System, perm []int) {
	b := e.buf[:0]
	if perm == nil {
		for _, c := range s.Caches {
			b = e.encodeCtrl(b, c, nil)
		}
	} else {
		e.setInv(perm)
		// Position j holds the cache whose renumbered id is j.
		for j := 0; j < len(perm); j++ {
			b = e.encodeCtrl(b, s.Caches[e.inv[j]], perm)
		}
	}
	e.buf = e.encodeRest(b, s, perm)
}

// encodeRest appends everything after the cache sections: the directory,
// the last-write value and the interconnect.
func (e *Encoder) encodeRest(b []byte, s *System, perm []int) []byte {
	b = e.encodeCtrl(b, s.Dir, perm)
	b = putInt(b, s.LastWrite)
	return e.encodeNet(b, s.Net, perm)
}

// setInv fills e.inv with perm's inverse (inv[new] = old).
func (e *Encoder) setInv(perm []int) {
	e.inv = e.inv[:0]
	for range perm {
		e.inv = append(e.inv, 0)
	}
	for old, new := range perm {
		e.inv[new] = old
	}
}

// encodeCtrl appends one controller: state index, int slots (VID slots
// remapped), set masks, pending access, then the length-prefixed defer
// queue.
func (e *Encoder) encodeCtrl(b []byte, c *Ctrl, perm []int) []byte {
	b = putInt(b, c.StIdx)
	for i, v := range c.Ints {
		if perm != nil && c.L.IntIsVID[i] {
			v = permID(perm, v)
		}
		b = putInt(b, v)
	}
	for _, m := range c.Masks {
		if perm != nil {
			m = permMask(m, perm)
		}
		b = putInt(b, int(m))
	}
	b = putInt(b, int(c.Pend))
	b = putInt(b, len(c.DeferQ))
	for i := range c.DeferQ {
		b = e.appendMsg(b, &c.DeferQ[i], perm)
	}
	return b
}

// encodeNet appends the interconnect. Ordered networks emit the count of
// messages in flight, then the messages in renumbered (class, src, dst)
// coordinate order, arrival order within a FIFO. No coordinate is
// written: a message's type fixes its class and its encoding holds its
// src and dst, so the sequence splits back into every FIFO in order.
// Unordered networks emit each class bag sorted, so permutations of the
// same multiset encode identically.
func (e *Encoder) encodeNet(b []byte, n *Network, perm []int) []byte {
	if !n.Ordered {
		from := 0
		for class := 0; class < NumClasses; class++ {
			to := from
			for to < len(n.msgs) && n.msgs[to].Class == class {
				to++
			}
			b = e.appendBag(b, n.msgs[from:to], perm)
			from = to
		}
		return b
	}
	// One word per message: renumbered queue coordinate above its list
	// index, so numeric order is coordinate order with arrival order
	// within a queue. Insertion sort: the list is short and, under the
	// identity, already sorted.
	e.ord = e.ord[:0]
	for i := range n.msgs {
		m := &n.msgs[i]
		w := uint64((m.Class*n.Nodes+permID(perm, m.Src))*n.Nodes+permID(perm, m.Dst))<<32 | uint64(i)
		at := len(e.ord)
		e.ord = append(e.ord, w)
		for ; at > 0 && e.ord[at-1] > w; at-- {
			e.ord[at] = e.ord[at-1]
		}
		e.ord[at] = w
	}
	b = putInt(b, len(e.ord))
	for _, w := range e.ord {
		b = e.appendMsg(b, &n.msgs[uint32(w)], perm)
	}
	return b
}

// appendBag appends an unordered message bag in canonical (sorted) order,
// so permutations of the same multiset encode identically. When every
// message packs into a word — always, in practice — the sort runs over
// the reused uint64 scratch without allocating; otherwise the messages'
// self-delimiting encodings are sorted bytewise.
func (e *Encoder) appendBag(b []byte, q []Msg, perm []int) []byte {
	e.bag = e.bag[:0]
	fast := true
	for i := range q {
		w, ok := e.tryMsgWord(&q[i], perm)
		if !ok {
			fast = false
			break
		}
		e.bag = append(e.bag, w)
	}
	b = putInt(b, len(q))
	if fast {
		slices.Sort(e.bag)
		for _, w := range e.bag {
			b = append(b, msgPacked)
			b = putU64(b, w)
		}
		return b
	}
	encs := make([][]byte, len(q))
	for i := range q {
		encs[i] = e.appendMsg(nil, &q[i], perm)
	}
	slices.SortFunc(encs, bytes.Compare)
	for _, enc := range encs {
		b = append(b, enc...)
	}
	return b
}

// Message encoding markers: every message starts with one, so the packed
// and escaped forms stay uniquely decodable side by side.
const (
	msgPacked  = 0 // 8-byte big-endian word follows
	msgEscaped = 1 // seven putInt fields follow
)

// appendMsg appends one message: the packed single-word form when every
// field fits a byte (the overwhelmingly common case), or the escaped
// variable-width form for out-of-range fields (huge ack counts, value
// domains past 254), so exotic configurations degrade instead of failing.
func (e *Encoder) appendMsg(b []byte, m *Msg, perm []int) []byte {
	if w, ok := e.tryMsgWord(m, perm); ok {
		b = append(b, msgPacked)
		return putU64(b, w)
	}
	b = append(b, msgEscaped)
	b = putInt(b, e.typeIndex(m))
	b = putInt(b, permID(perm, m.Src))
	b = putInt(b, permID(perm, m.Dst))
	req := m.Req
	if req != NoID {
		req = permID(perm, req)
	}
	b = putInt(b, req)
	b = putInt(b, m.Acks)
	b = putInt(b, m.Data)
	if m.HasData {
		return append(b, 1)
	}
	return append(b, 0)
}

// tryMsgWord packs a message into one 56-bit word: type index, src, dst,
// req, acks, data (each biased by one so NoID encodes as zero), and the
// data flag. Reports false when any field falls outside a byte.
func (e *Encoder) tryMsgWord(m *Msg, perm []int) (uint64, bool) {
	req := m.Req
	if req != NoID {
		req = permID(perm, req)
	}
	ti, src, dst := e.typeIndex(m)+1, permID(perm, m.Src)+1, permID(perm, m.Dst)+1
	req++
	acks, data := m.Acks+1, m.Data+1
	// A biased field fits its byte iff it is in [0, 255]; OR-ing the six
	// as unsigned words tests them all at once.
	if uint(ti)|uint(src)|uint(dst)|uint(req)|uint(acks)|uint(data) > 255 {
		return 0, false
	}
	w := uint64(ti)<<48 | uint64(src)<<40 | uint64(dst)<<32 | uint64(req)<<24 | uint64(acks)<<16 | uint64(data)<<8
	if m.HasData {
		w |= 1
	}
	return w, true
}

func (e *Encoder) typeIndex(m *Msg) int {
	if m.tIdx > 0 {
		return m.tIdx - 1
	}
	ti, ok := e.typeIdx[m.Type] //vethotpath:ignore — cold: hand-built (unstamped) messages exist only in tests
	if !ok {
		panic(fmt.Sprintf("engine: encoding undeclared message type %q", m.Type))
	}
	return ti
}

// permID remaps a node id through perm; the directory (and NoID) pass
// through unchanged, as do all ids under a nil (identity) permutation.
func permID(perm []int, id int) int {
	if perm != nil && id >= 0 && id < len(perm) {
		return perm[id]
	}
	return id
}

// permMask renumbers the bits of an id-set mask.
func permMask(m uint32, perm []int) uint32 {
	var out uint32
	for ; m != 0; m &= m - 1 {
		out |= 1 << uint(permID(perm, bits.TrailingZeros32(m)))
	}
	return out
}

// putInt appends a self-delimiting integer: values in [-1, 253] take one
// byte (biased by one); anything else escapes to a marker plus eight
// little-endian bytes. State indices, variable slots, masks and queue
// lengths all take the short form in practice.
func putInt(b []byte, v int) []byte {
	if v >= -1 && v <= 253 {
		return append(b, byte(v+1))
	}
	u := uint64(int64(v))
	return append(b, 0xFF,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// putU64 appends a fixed-width big-endian word, so lexicographic byte
// order matches numeric order (the unordered-bag sort relies on this).
func putU64(b []byte, w uint64) []byte {
	return append(b,
		byte(w>>56), byte(w>>48), byte(w>>40), byte(w>>32),
		byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
}

// Fingerprint hashes a canonical state encoding to a 64-bit state
// fingerprint. The input hash is wyhash's multiply-fold, one word at a
// time: each step XORs eight key bytes into the state and replaces it by
// the folded 128-bit product with a wyhash secret constant. A short tail
// is zero-padded into a last word and the length is folded in after it
// (as wyhash does), so keys that differ only in trailing zero bytes still
// differ and no content byte can cancel the length. A splitmix64-style
// avalanche finalizer follows, so high and low bit ranges both mix well —
// the fingerprint visited table derives its shard index from the top bits
// and its slot index from the bottom bits of the same word.
func Fingerprint(b []byte) uint64 {
	const (
		k0 = 0xa0761d6478bd642f
		k1 = 0xe7037ed1a0b428db
	)
	h, n := uint64(k0), uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		h = foldMul(h^binary.LittleEndian.Uint64(b), k1)
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = foldMul(h^binary.LittleEndian.Uint64(tail[:]), k1)
	}
	h = foldMul(h^n, k0)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// foldMul is wyhash's mixer: the 128-bit product of a and b, folded.
func foldMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
