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
	if c.L.DataVar == "" {
		return 0
	}
	return c.Ints[c.L.IntIdx[c.L.DataVar]]
}

// SetData sets the data block value.
func (c *Ctrl) SetData(v int) {
	if c.L.DataVar != "" {
		c.Ints[c.L.IntIdx[c.L.DataVar]] = v
	}
}

// eval evaluates an expression against the controller's variables and the
// triggering message (which may be nil for access events).
func (c *Ctrl) eval(e *ir.Expr, m *Msg) (int, error) {
	switch e.Kind {
	case ir.EConst:
		return e.Int, nil
	case ir.ENone:
		return NoID, nil
	case ir.EVar:
		idx, ok := c.L.IntIdx[e.Name]
		if !ok {
			return 0, fmt.Errorf("eval: unknown variable %s", e.Name)
		}
		return c.Ints[idx], nil
	case ir.EField:
		if m == nil {
			return 0, fmt.Errorf("eval: message field %s outside a message event", e.Name)
		}
		switch e.Name {
		case "src":
			return m.Src, nil
		case "req":
			return m.Req, nil
		case "acks":
			return m.Acks, nil
		case "data":
			return m.Data, nil
		}
		return 0, fmt.Errorf("eval: unknown message field %s", e.Name)
	case ir.ECount:
		idx, ok := c.L.SetIdx[e.Name]
		if !ok {
			return 0, fmt.Errorf("eval: unknown set %s", e.Name)
		}
		mask := c.Masks[idx]
		if e.L != nil {
			ex, err := c.eval(e.L, m)
			if err != nil {
				return 0, err
			}
			if ex >= 0 {
				mask &^= 1 << uint(ex)
			}
		}
		return bits.OnesCount32(mask), nil
	case ir.EInSet:
		idx, ok := c.L.SetIdx[e.Name]
		if !ok {
			return 0, fmt.Errorf("eval: unknown set %s", e.Name)
		}
		v, err := c.eval(e.L, m)
		if err != nil {
			return 0, err
		}
		if v >= 0 && c.Masks[idx]&(1<<uint(v)) != 0 {
			return 1, nil
		}
		return 0, nil
	case ir.ENot:
		v, err := c.eval(e.L, m)
		if err != nil {
			return 0, err
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case ir.EBinop:
		l, err := c.eval(e.L, m)
		if err != nil {
			return 0, err
		}
		r, err := c.eval(e.R, m)
		if err != nil {
			return 0, err
		}
		switch e.Op {
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

// match selects the unique transition for (state, ev) whose guard holds.
// found=false means the event has no enabled transition at all.
func (c *Ctrl) match(ev ir.Event, m *Msg) (*ir.Transition, bool, error) {
	return c.matchEv(c.L.EvIndex(ev.String()), m)
}

// matchEv is match with the event pre-resolved to its dense index
// (Layout.EvIndex) — the hot-path form: an array walk instead of a
// (state, event) hash probe. evi < 0 means the machine never fires on
// the event, so no transition matches.
func (c *Ctrl) matchEv(evi int, m *Msg) (*ir.Transition, bool, error) {
	if evi < 0 || c.StIdx < 0 {
		return nil, false, nil
	}
	var hit *ir.Transition
	ts := c.L.transAt[c.StIdx][evi]
	for _, t := range ts {
		if t.Guard != nil {
			v, err := c.eval(t.Guard, m)
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
	if hit == nil {
		return nil, false, nil
	}
	return hit, true, nil
}
