package engine

import "fmt"

// Msg is one in-flight coherence message.
type Msg struct {
	Type    string // message type name
	Src     int
	Dst     int
	Req     int // embedded requestor id (NoID when absent)
	Acks    int
	Data    int // carried data value
	HasData bool
	Class   int // virtual channel class
	// tIdx caches the protocol's message-type index plus one (0 means
	// unstamped). System.execSend stamps every message it sends, letting
	// the encoder skip its type-name map probe; hand-built messages
	// (tests) fall back to the probe.
	tIdx int
}

// String renders the message for rule names and traces.
func (m Msg) String() string {
	s := fmt.Sprintf("%s %d->%d", m.Type, m.Src, m.Dst)
	if m.Req != NoID {
		s += fmt.Sprintf(" req=%d", m.Req)
	}
	if m.Acks != 0 {
		s += fmt.Sprintf(" acks=%d", m.Acks)
	}
	if m.HasData {
		s += fmt.Sprintf(" data=%d", m.Data)
	}
	return s
}

// TypeIdx returns the index of the message's type in Protocol.Msgs, as
// stamped by System.execSend, or -1 for hand-built messages that were
// never stamped. The verifier's reduction tables are keyed by it.
func (m Msg) TypeIdx() int { return m.tIdx - 1 }

// NumClasses is the number of virtual channels (request, forward, response).
const NumClasses = 3

// Network is the interconnect: three virtual channels, each either a set
// of per-(src,dst) FIFOs (point-to-point ordered) or a bag (unordered).
// Per-queue capacity bounds the model-checking state space; overflow is a
// protocol error (these protocols bound their in-flight traffic).
//
// The queues are a coordinate system, not storage: every message in flight
// sits in one flat list ordered by queue index and, within a queue, by
// arrival (bag order on an unordered network). A reachable state holds a
// handful of messages whatever the node count, so every pass over the
// network — enumerating, copying, encoding — costs what is in flight and
// not the (Nodes² × classes) shape of the grid.
type Network struct {
	Ordered  bool
	Nodes    int
	Capacity int
	msgs     []Msg
	// dirty records that Send or Remove ran since the network was last made
	// equal to another (Clone, CloneInto, RevertTo) or restored from a
	// snapshot; RevertTo copies the list back only then.
	dirty bool
}

// NewNetwork builds an empty interconnect.
func NewNetwork(ordered bool, nodes, capacity int) *Network {
	return &Network{Ordered: ordered, Nodes: nodes, Capacity: capacity}
}

// QueueOf returns the index of the queue m travels in — ordered:
// class*Nodes*Nodes + src*Nodes + dst; unordered: its class bag.
func (n *Network) QueueOf(m *Msg) int {
	if n.Ordered {
		return (m.Class*n.Nodes+m.Src)*n.Nodes + m.Dst
	}
	return m.Class
}

// Msgs exposes the messages in flight, in queue-index then arrival order,
// read-only for the verifier's reduction scans (id-freeness, capacity
// headroom). Callers must not mutate or retain the returned slice past the
// next network mutation.
func (n *Network) Msgs() []Msg { return n.msgs }

// Send enqueues a message; it fails when the target queue is full.
func (n *Network) Send(m Msg) error {
	q := n.QueueOf(&m)
	// The insertion point is behind the last message of queue q or of any
	// queue before it; scanning back from the end finds it within the few
	// messages in flight.
	at := len(n.msgs)
	for at > 0 && n.QueueOf(&n.msgs[at-1]) > q {
		at--
	}
	limit := n.Capacity
	if !n.Ordered {
		limit = n.Capacity * n.Nodes * n.Nodes
	}
	queued := 0
	for i := at; i > 0 && n.QueueOf(&n.msgs[i-1]) == q; i-- {
		queued++
	}
	if queued >= limit {
		return fmt.Errorf("network: channel overflow (%s)", m)
	}
	n.msgs = append(n.msgs, Msg{})
	copy(n.msgs[at+1:], n.msgs[at:])
	n.msgs[at] = m
	n.dirty = true
	return nil
}

// Deliverable enumerates the messages that may be delivered next: FIFO
// heads on an ordered network, every message on an unordered one. The
// returned handles stay valid until the next mutation.
type Deliverable struct {
	Queue int // queue index
	Pos   int // position within the queue (0 for ordered heads)
	Msg   Msg
}

// Deliverables lists the candidate deliveries in deterministic order.
func (n *Network) Deliverables() []Deliverable {
	return n.AppendDeliverables(nil)
}

// AppendDeliverables appends the candidate deliveries to buf in the same
// deterministic order as Deliverables, reusing buf's backing array — the
// allocation-free form for hot loops (simulator and litmus steps).
func (n *Network) AppendDeliverables(buf []Deliverable) []Deliverable {
	queue, pos := -1, 0
	for i := range n.msgs {
		if q := n.QueueOf(&n.msgs[i]); q != queue {
			queue, pos = q, 0
		} else {
			pos++
		}
		if pos == 0 || !n.Ordered {
			buf = append(buf, Deliverable{Queue: queue, Pos: pos, Msg: n.msgs[i]})
		}
	}
	return buf
}

// Remove takes a previously enumerated deliverable out of the network,
// shifting the tail in place (the list is uniquely owned by its System,
// so no other state can observe the mutation).
func (n *Network) Remove(d Deliverable) {
	at := 0
	for n.QueueOf(&n.msgs[at]) != d.Queue {
		at++
	}
	at += d.Pos
	n.msgs = append(n.msgs[:at], n.msgs[at+1:]...)
	n.dirty = true
}

// InFlight counts all queued messages.
func (n *Network) InFlight() int { return len(n.msgs) }

// Clone deep-copies the network.
func (n *Network) Clone() *Network {
	c := *n
	c.msgs = append([]Msg(nil), n.msgs...)
	c.dirty = false
	return &c
}

// CloneInto deep-copies n into dst, reusing dst's backing array.
func (n *Network) CloneInto(dst *Network) {
	msgs := append(dst.msgs[:0], n.msgs...)
	*dst = *n
	dst.msgs, dst.dirty = msgs, false
}

// RevertTo makes n equal to src again, given that it was when n was last
// synchronised (see the dirty field) and src has not changed since: a
// network nothing was sent on or removed from is left alone.
func (n *Network) RevertTo(src *Network) {
	if n.dirty {
		src.CloneInto(n)
	}
}
