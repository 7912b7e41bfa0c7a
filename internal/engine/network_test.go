package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// netOracle is the naive network the flat list is checked against: one
// slice per queue index, nothing shared, nothing clever.
type netOracle struct {
	ordered         bool
	nodes, capacity int
	queues          map[int][]Msg
}

func (o *netOracle) queueOf(m Msg) int {
	if o.ordered {
		return m.Class*o.nodes*o.nodes + m.Src*o.nodes + m.Dst
	}
	return m.Class
}

func (o *netOracle) limit() int {
	if o.ordered {
		return o.capacity
	}
	return o.capacity * o.nodes * o.nodes
}

// send reports whether the message fits.
func (o *netOracle) send(m Msg) bool {
	q := o.queueOf(m)
	if len(o.queues[q]) >= o.limit() {
		return false
	}
	o.queues[q] = append(o.queues[q], m)
	return true
}

func (o *netOracle) remove(d Deliverable) {
	q := o.queues[d.Queue]
	o.queues[d.Queue] = append(append([]Msg(nil), q[:d.Pos]...), q[d.Pos+1:]...)
}

// contents returns every message in queue-index then arrival order, and
// the deliverables among them: heads when ordered, everything otherwise.
func (o *netOracle) contents() (msgs []Msg, dels []Deliverable) {
	var idx []int
	for q, ms := range o.queues {
		if len(ms) > 0 {
			idx = append(idx, q)
		}
	}
	sort.Ints(idx)
	for _, q := range idx {
		for pos, m := range o.queues[q] {
			msgs = append(msgs, m)
			if pos == 0 || !o.ordered {
				dels = append(dels, Deliverable{Queue: q, Pos: pos, Msg: m})
			}
		}
	}
	return msgs, dels
}

func (o *netOracle) clone() *netOracle {
	c := *o
	c.queues = map[int][]Msg{}
	for q, ms := range o.queues {
		c.queues[q] = append([]Msg(nil), ms...)
	}
	return &c
}

// agree fails unless n holds exactly what o holds, in o's order.
func agree(t *testing.T, where string, n *Network, o *netOracle) {
	t.Helper()
	msgs, dels := o.contents()
	if got := n.Msgs(); !(len(got) == 0 && len(msgs) == 0) && !reflect.DeepEqual(got, msgs) {
		t.Fatalf("%s: in flight\n got %v\nwant %v", where, got, msgs)
	}
	if got := n.AppendDeliverables(nil); !(len(got) == 0 && len(dels) == 0) && !reflect.DeepEqual(got, dels) {
		t.Fatalf("%s: deliverables\n got %v\nwant %v", where, got, dels)
	}
	if n.InFlight() != len(msgs) {
		t.Fatalf("%s: InFlight() = %d, want %d", where, n.InFlight(), len(msgs))
	}
}

// randomOp sends a fresh message or removes a random deliverable, on the
// network and on the oracle alike; serial makes every message distinct.
func randomOp(t *testing.T, where string, rng *rand.Rand, n *Network, o *netOracle, serial *int) {
	t.Helper()
	dels := n.AppendDeliverables(nil)
	if len(dels) > 0 && rng.Intn(5) < 2 {
		d := dels[rng.Intn(len(dels))]
		n.Remove(d)
		o.remove(d)
		return
	}
	*serial++
	// Two sources and two destinations keep the queues few enough to fill.
	m := Msg{Type: "T", Class: rng.Intn(NumClasses), Src: rng.Intn(2), Dst: o.nodes - 1 - rng.Intn(2), Req: NoID, Acks: *serial}
	err := n.Send(m)
	if fits := o.send(m); fits != (err == nil) {
		t.Fatalf("%s: Send(%v) = %v with %d of %d queued", where, m, err, len(o.queues[o.queueOf(m)]), o.limit())
	}
}

// TestNetworkAgainstOracle drives random Send/Remove sequences through the
// flat in-flight list and a map of per-queue slices: order, handles,
// counts and overflow must agree at every step, and copies made along the
// way (Clone, CloneInto, RevertTo) must neither leak into nor follow their
// source. Nine nodes is 243 ordered queues.
func TestNetworkAgainstOracle(t *testing.T) {
	for _, ordered := range []bool{true, false} {
		for _, nodes := range []int{4, 9} {
			name := fmt.Sprintf("ordered=%v/nodes=%d", ordered, nodes)
			rng := rand.New(rand.NewSource(int64(nodes)))
			n := NewNetwork(ordered, nodes, 2)
			o := &netOracle{ordered: ordered, nodes: nodes, capacity: 2, queues: map[int][]Msg{}}
			recycled := NewNetwork(ordered, nodes, 2)
			serial, overflows := 0, 0
			for step := 0; step < 3000; step++ {
				where := fmt.Sprintf("%s step %d", name, step)
				before := n.InFlight()
				randomOp(t, where, rng, n, o, &serial)
				if n.InFlight() == before {
					overflows++
				}
				agree(t, where, n, o)
				if step%50 != 0 {
					continue
				}
				// A copy goes its own way for a while, then reverts; the
				// source must not have moved and the copy must be back.
				var c *Network
				if step%100 == 0 {
					c = n.Clone()
				} else {
					n.CloneInto(recycled)
					c = recycled
				}
				co := o.clone()
				for i := 0; i < 20; i++ {
					randomOp(t, where+" (copy)", rng, c, co, &serial)
				}
				agree(t, where+" (copy)", c, co)
				agree(t, where+" (source after its copy moved)", n, o)
				c.RevertTo(n)
				agree(t, where+" (copy reverted)", c, o)
				c.RevertTo(n) // nothing happened since: must stay put
				agree(t, where+" (copy reverted twice)", c, o)
			}
			if overflows == 0 {
				t.Errorf("%s: the walk never filled a queue", name)
			}
		}
	}
}

// TestNetworkOverflowExactlyAtLimit: a FIFO takes Capacity messages, a bag
// Capacity·Nodes², and a full queue leaves the others open.
func TestNetworkOverflowExactlyAtLimit(t *testing.T) {
	for _, tc := range []struct {
		ordered bool
		limit   int
	}{{true, 3}, {false, 3 * 4 * 4}} {
		n := NewNetwork(tc.ordered, 4, 3)
		for i := 0; i < tc.limit; i++ {
			if err := n.Send(Msg{Type: "T", Class: 1, Src: 0, Dst: 3, Acks: i}); err != nil {
				t.Fatalf("ordered=%v: message %d of %d refused: %v", tc.ordered, i+1, tc.limit, err)
			}
		}
		if err := n.Send(Msg{Type: "T", Class: 1, Src: 0, Dst: 3}); err == nil {
			t.Errorf("ordered=%v: message %d accepted past the limit", tc.ordered, tc.limit+1)
		}
		if n.InFlight() != tc.limit {
			t.Errorf("ordered=%v: %d in flight after the refused send, want %d", tc.ordered, n.InFlight(), tc.limit)
		}
		if err := n.Send(Msg{Type: "T", Class: 2, Src: 0, Dst: 3}); err != nil {
			t.Errorf("ordered=%v: a full queue closed another: %v", tc.ordered, err)
		}
	}
}
