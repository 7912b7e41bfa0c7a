package engine

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"protogen/internal/ir"
)

// States at rest are bytes. A System is a pointer graph (queue headers, a
// controller block, slot backings) that costs a deep copy to keep and a
// collector scan to hold; the model checker therefore keeps every state it
// is not expanding as a snapshot — a flat, pointer-free record — and
// restores it into a scratch System when its turn comes.
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
	for qi, q := range s.Net.queues {
		if len(q) == 0 {
			continue
		}
		b = putInt(b, qi)
		b = putInt(b, len(q))
		for i := range q {
			b = s.appendMsg(b, &q[i])
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
	ti := m.tIdx - 1
	if ti < 0 {
		// Hand-built (unstamped) message: resolve the name once; the
		// restored message is stamped.
		meta, ok := s.msgMeta[m.Type]
		if !ok {
			panic(fmt.Sprintf("engine: snapshot of undeclared message type %q", m.Type))
		}
		ti = meta.tIdx - 1
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
	n := s.Net
	for i := range n.queues {
		n.queues[i] = n.queues[i][:0]
	}
	var qi, ln int
	for qi, b = getInt(b); qi >= 0; qi, b = getInt(b) {
		for ln, b = getInt(b); ln > 0; ln-- {
			var m Msg
			m, b = s.restoreMsg(b)
			n.queues[qi] = append(n.queues[qi], m)
		}
	}
	if len(b) != 0 {
		panic("engine: snapshot record has trailing bytes")
	}
	s.synced()
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
		var m Msg
		m, b = s.restoreMsg(b)
		c.DeferQ = append(c.DeferQ, m)
	}
	return b
}

func (s *System) restoreMsg(b []byte) (Msg, []byte) {
	var ti int
	ti, b = getInt(b)
	d := &s.P.Msgs[ti]
	m := Msg{Type: string(d.Type), Class: int(d.Class), tIdx: ti + 1}
	m.Src, b = getInt(b)
	m.Dst, b = getInt(b)
	m.Req, b = getInt(b)
	m.Acks, b = getInt(b)
	m.Data, b = getInt(b)
	m.HasData = b[0] != 0
	return m, b[1:]
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
// records every controller (exec, drainDirDefers) and queue (its Remove,
// execSend) it mutates, error paths included, in s's two touched words,
// which synchronisation clears; mutations made behind Apply's back (a
// test poking Net.Send) are not seen. A System that never reverts pays a
// few ORs per step for them and nothing else.
func (s *System) RevertTo(src *System) {
	s.LastWrite = src.LastWrite
	for m := s.touchedCtrl; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		src.ctrlAt(id).CloneInto(s.ctrlAt(id))
	}
	n := s.Net
	for m := s.touchedQ; m != 0; m &= m - 1 {
		for qi := bits.TrailingZeros64(m); qi < len(n.queues); qi += 64 {
			n.queues[qi] = append(n.queues[qi][:0], src.Net.queues[qi]...)
		}
	}
	s.synced()
}

// synced clears the touched sets: s now equals whatever it was just
// copied or restored from.
func (s *System) synced() {
	s.touchedCtrl, s.touchedQ = 0, 0
}
