package engine

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"protogen/internal/ir"
)

// States at rest are bytes. A System is a pointer graph (the in-flight
// list, a controller block, slot backings) that costs a deep copy to keep
// and a collector scan to hold; the model checker therefore keeps every
// state it is not expanding as a snapshot — a flat, pointer-free record —
// and restores it into a scratch System when its turn comes.
//
// A snapshot is order-preserving where the canonical key (Encoder) is not:
// queues keep their position order (bag order on an unordered network) and
// caches keep their identities, so Rules() on the restored System
// enumerates exactly what it enumerated on the original, in the same
// order, and witness traces stay executions of the concrete system. The
// key sorts bags and renumbers caches; it cannot double as the record.
//
// Layout (every integer in putInt form):
//
//	LastWrite
//	per controller, caches then directory:
//	    StIdx [len(State) State, only when StIdx < 0] Pend Ints... Masks...
//	    len(DeferQ) msg...
//	per non-empty queue: index len msg...; then -1
//	msg: type index, Src, Dst, Req, Acks, Data, HasData
//
// Type and Class of a message are re-derived from Protocol.Msgs.

// AppendSnapshot appends the record of s's mutable state to b.
func (s *System) AppendSnapshot(b []byte) []byte {
	b = putInt(b, s.LastWrite)
	for _, c := range s.Caches {
		b = s.appendCtrl(b, c)
	}
	b = s.appendCtrl(b, s.Dir)
	// The in-flight list is already in record order: one run per non-empty
	// queue, by queue index.
	n := s.Net
	for i := 0; i < len(n.msgs); {
		q, end := n.QueueOf(&n.msgs[i]), i+1
		for end < len(n.msgs) && n.QueueOf(&n.msgs[end]) == q {
			end++
		}
		b = putInt(b, q)
		b = putInt(b, end-i)
		for ; i < end; i++ {
			b = s.appendMsg(b, &n.msgs[i])
		}
	}
	return putInt(b, -1)
}

func (s *System) appendCtrl(b []byte, c *Ctrl) []byte {
	b = putInt(b, c.StIdx)
	if c.StIdx < 0 {
		b = putInt(b, len(c.State))
		b = append(b, c.State...)
	}
	b = putInt(b, int(c.Pend))
	for _, v := range c.Ints {
		b = putInt(b, v)
	}
	for _, m := range c.Masks {
		b = putInt(b, int(m))
	}
	b = putInt(b, len(c.DeferQ))
	for i := range c.DeferQ {
		b = s.appendMsg(b, &c.DeferQ[i])
	}
	return b
}

func (s *System) appendMsg(b []byte, m *Msg) []byte {
	// A hand-built (unstamped) message is resolved by name; the restored
	// message is stamped.
	ti := s.typeIndex(m)
	if ti < 0 {
		panic(fmt.Sprintf("engine: snapshot of undeclared message type %q", m.Type))
	}
	b = putInt(b, ti)
	b = putInt(b, m.Src)
	b = putInt(b, m.Dst)
	b = putInt(b, m.Req)
	b = putInt(b, m.Acks)
	b = putInt(b, m.Data)
	if m.HasData {
		return append(b, 1)
	}
	return append(b, 0)
}

// Restore overwrites s's mutable state with the record b, which must be
// exactly one AppendSnapshot result of a System of the same protocol and
// configuration. It reuses s's backing arrays and leaves s synchronised
// (see RevertTo). A record of another shape is a caller bug and panics.
func (s *System) Restore(b []byte) {
	s.LastWrite, b = getInt(b)
	for _, c := range s.Caches {
		b = s.restoreCtrl(b, c)
	}
	b = s.restoreCtrl(b, s.Dir)
	// Queue records arrive in list order; a message's own coordinates say
	// which queue it is in, so the recorded index is only the terminator.
	n := s.Net
	n.msgs, n.dirty = n.msgs[:0], false
	var qi, ln int
	for qi, b = getInt(b); qi >= 0; qi, b = getInt(b) {
		for ln, b = getInt(b); ln > 0; ln-- {
			n.msgs, b = s.restoreMsg(n.msgs, b)
		}
	}
	if len(b) != 0 {
		panic("engine: snapshot record has trailing bytes")
	}
	s.touchedCtrl = 0
}

func (s *System) restoreCtrl(b []byte, c *Ctrl) []byte {
	var v int
	c.StIdx, b = getInt(b)
	if c.StIdx >= 0 {
		c.State = c.L.M.Order[c.StIdx]
	} else {
		v, b = getInt(b)
		c.State = ir.StateName(b[:v])
		b = b[v:]
	}
	v, b = getInt(b)
	c.Pend = ir.AccessType(v)
	for i := range c.Ints {
		c.Ints[i], b = getInt(b)
	}
	for i := range c.Masks {
		v, b = getInt(b)
		c.Masks[i] = uint32(v)
	}
	c.DeferQ = c.DeferQ[:0]
	for v, b = getInt(b); v > 0; v-- {
		c.DeferQ, b = s.restoreMsg(c.DeferQ, b)
	}
	return b
}

// restoreMsg appends the message at the front of b to q.
func (s *System) restoreMsg(q []Msg, b []byte) ([]Msg, []byte) {
	var ti int
	ti, b = getInt(b)
	d := &s.P.Msgs[ti]
	q = append(q, Msg{Type: string(d.Type), Class: int(d.Class), tIdx: ti + 1})
	m := &q[len(q)-1]
	m.Src, b = getInt(b)
	m.Dst, b = getInt(b)
	m.Req, b = getInt(b)
	m.Acks, b = getInt(b)
	m.Data, b = getInt(b)
	m.HasData = b[0] != 0
	return q, b[1:]
}

// getInt reads one putInt value off the front of b.
func getInt(b []byte) (int, []byte) {
	if b[0] != 0xFF {
		return int(b[0]) - 1, b[1:]
	}
	return int(int64(binary.LittleEndian.Uint64(b[1:9]))), b[9:]
}

// RevertTo makes s equal to src again by copying back only what s's rules
// touched. It is valid when s was last synchronised with this very src
// state — by src.CloneInto(s), by an earlier s.RevertTo(src), or by
// restoring both from one record — and src has not changed since. Apply
// records every controller it mutates (exec, drainDirDefers), error paths
// included, in s.touchedCtrl, and Network.Send and Remove mark the
// network dirty themselves; synchronisation clears both. Controller
// mutations made behind Apply's back (a test poking a DeferQ) are not
// seen. A System that never reverts pays an OR and a store per step for
// them and nothing else.
func (s *System) RevertTo(src *System) {
	s.LastWrite = src.LastWrite
	for m := s.touchedCtrl; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		src.ctrlAt(id).CloneInto(s.ctrlAt(id))
	}
	s.touchedCtrl = 0
	s.Net.RevertTo(src.Net)
}
