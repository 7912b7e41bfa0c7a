package engine

import (
	"fmt"
	"math/bits"

	"protogen/internal/ir"
)

// Ctrl is the mutable state of one controller instance.
type Ctrl struct {
	ID    int
	L     *Layout
	State ir.StateName
	// StIdx caches L.StateIdx[State]; maintained by every State write so
	// the encoder and matcher index arrays instead of hashing the name.
	StIdx  int
	Ints   []int    // VInt/VID/VData slots
	Masks  []uint32 // VIDSet slots
	Pend   ir.AccessType
	DeferQ []Msg // deferred forwarded requests (cache) / requests (dir)
}

// NewCtrl instantiates a controller in its initial state.
func NewCtrl(id int, l *Layout) *Ctrl {
	c := &Ctrl{ID: id, L: l, State: l.M.Init, StIdx: l.StateIdx[l.M.Init]}
	c.Ints = append([]int(nil), l.IntInit...)
	c.Masks = make([]uint32, len(l.SetVars))
	return c
}

// Clone deep-copies the controller.
func (c *Ctrl) Clone() *Ctrl {
	n := *c
	n.Ints = append([]int(nil), c.Ints...)
	n.Masks = append([]uint32(nil), c.Masks...)
	n.DeferQ = append([]Msg(nil), c.DeferQ...)
	return &n
}

// CloneInto deep-copies c's state into dst, reusing dst's backing arrays
// where capacity allows. dst must be a controller of the same layout
// (typically a scratch Clone of the same machine).
func (c *Ctrl) CloneInto(dst *Ctrl) {
	dst.ID = c.ID
	dst.L = c.L
	dst.State = c.State
	dst.StIdx = c.StIdx
	dst.Pend = c.Pend
	dst.Ints = append(dst.Ints[:0], c.Ints...)
	dst.Masks = append(dst.Masks[:0], c.Masks...)
	dst.DeferQ = append(dst.DeferQ[:0], c.DeferQ...)
}

// Data returns the controller's data block value (0 if it has no data var).
func (c *Ctrl) Data() int {
	if c.L.dataSlot < 0 {
		return 0
	}
	return c.Ints[c.L.dataSlot]
}

// SetData sets the data block value.
func (c *Ctrl) SetData(v int) {
	if c.L.dataSlot >= 0 {
		c.Ints[c.L.dataSlot] = v
	}
}

// eval evaluates an expression against the controller's variables and the
// triggering message (which may be nil for access events).
func (c *Ctrl) eval(e *expr, m *Msg) (int, error) {
	switch e.kind {
	case ir.EConst:
		return e.n, nil
	case ir.ENone:
		return NoID, nil
	case ir.EVar:
		if e.n < 0 {
			return 0, fmt.Errorf("eval: unknown variable %s", e.name)
		}
		return c.Ints[e.n], nil
	case ir.EField:
		if m == nil {
			return 0, fmt.Errorf("eval: message field %s outside a message event", e.name)
		}
		switch e.n {
		case fieldSrc:
			return m.Src, nil
		case fieldReq:
			return m.Req, nil
		case fieldAcks:
			return m.Acks, nil
		case fieldData:
			return m.Data, nil
		}
		return 0, fmt.Errorf("eval: unknown message field %s", e.name)
	case ir.ECount:
		if e.n < 0 {
			return 0, fmt.Errorf("eval: unknown set %s", e.name)
		}
		mask := c.Masks[e.n]
		if e.l != nil {
			ex, err := c.eval(e.l, m)
			if err != nil {
				return 0, err
			}
			if ex >= 0 {
				mask &^= 1 << uint(ex)
			}
		}
		return bits.OnesCount32(mask), nil
	case ir.EInSet:
		if e.n < 0 {
			return 0, fmt.Errorf("eval: unknown set %s", e.name)
		}
		v, err := c.eval(e.l, m)
		if err != nil {
			return 0, err
		}
		if v >= 0 && c.Masks[e.n]&(1<<uint(v)) != 0 {
			return 1, nil
		}
		return 0, nil
	case ir.ENot:
		v, err := c.eval(e.l, m)
		if err != nil {
			return 0, err
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case ir.EBinop:
		l, err := c.eval(e.l, m)
		if err != nil {
			return 0, err
		}
		r, err := c.eval(e.r, m)
		if err != nil {
			return 0, err
		}
		switch e.op {
		case ir.OpAdd:
			return l + r, nil
		case ir.OpSub:
			return l - r, nil
		case ir.OpEq:
			return b2i(l == r), nil
		case ir.OpNe:
			return b2i(l != r), nil
		case ir.OpLt:
			return b2i(l < r), nil
		case ir.OpLe:
			return b2i(l <= r), nil
		case ir.OpGt:
			return b2i(l > r), nil
		case ir.OpGe:
			return b2i(l >= r), nil
		case ir.OpAnd:
			return b2i(l != 0 && r != 0), nil
		case ir.OpOr:
			return b2i(l != 0 || r != 0), nil
		}
	}
	return 0, fmt.Errorf("eval: bad expression")
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// candidates lists the transitions out of c's state on the event with
// dense index evi (Layout.msgEvent, Layout.accessEvent), guards not yet
// evaluated. evi < 0 means the machine never fires on the event, and a
// controller parked in an undeclared state has no transitions at all.
func (c *Ctrl) candidates(evi int) []*trans {
	if evi < 0 || c.StIdx < 0 {
		return nil
	}
	return c.L.transAt[c.StIdx][evi]
}

// matchEv selects the unique transition for (state, event evi) whose guard
// holds — an array walk, no (state, event) hash probe. found=false means
// the event has no enabled transition at all.
func (c *Ctrl) matchEv(evi int, m *Msg) (*trans, bool, error) {
	var hit *trans
	for _, t := range c.candidates(evi) {
		if t.guard != nil {
			v, err := c.eval(t.guard, m)
			if err != nil {
				return nil, false, err
			}
			if v == 0 {
				continue
			}
		}
		if hit != nil {
			return nil, false, fmt.Errorf("%s in %s: ambiguous guards for %s", c.L.M.Name, c.State, t.Ev)
		}
		hit = t
	}
	return hit, hit != nil, nil
}
