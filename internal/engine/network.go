package engine

import (
	"fmt"
	"strconv"
)

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

// String renders the message for rule names and traces. Built with
// strconv appends rather than fmt: the checker materializes one rule
// string per discovered state, so this sits on the exploration hot path.
func (m Msg) String() string {
	return string(m.appendString(make([]byte, 0, 48)))
}

// appendString appends the String rendering to b (shared with
// Rule.String so a deliver rule costs one allocation).
func (m Msg) appendString(b []byte) []byte {
	b = append(b, m.Type...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(m.Src), 10)
	b = append(b, '-', '>')
	b = strconv.AppendInt(b, int64(m.Dst), 10)
	if m.Req != NoID {
		b = append(b, " req="...)
		b = strconv.AppendInt(b, int64(m.Req), 10)
	}
	if m.Acks != 0 {
		b = append(b, " acks="...)
		b = strconv.AppendInt(b, int64(m.Acks), 10)
	}
	if m.HasData {
		b = append(b, " data="...)
		b = strconv.AppendInt(b, int64(m.Data), 10)
	}
	return b
}

// NumClasses is the number of virtual channels (request, forward, response).
const NumClasses = 3

// Network is the interconnect: three virtual channels, each either a set
// of per-(src,dst) FIFOs (point-to-point ordered) or a bag (unordered).
// Per-queue capacity bounds the model-checking state space; overflow is a
// protocol error (these protocols bound their in-flight traffic).
type Network struct {
	Ordered  bool
	Nodes    int
	Capacity int
	queues   [][]Msg // ordered: index = class*Nodes*Nodes + src*Nodes + dst; unordered: index = class
}

// NewNetwork builds an empty interconnect.
func NewNetwork(ordered bool, nodes, capacity int) *Network {
	n := &Network{Ordered: ordered, Nodes: nodes, Capacity: capacity}
	if ordered {
		n.queues = make([][]Msg, NumClasses*nodes*nodes)
	} else {
		n.queues = make([][]Msg, NumClasses)
	}
	return n
}

func (n *Network) qidx(class, src, dst int) int {
	if n.Ordered {
		return class*n.Nodes*n.Nodes + src*n.Nodes + dst
	}
	return class
}

// TypeIdx returns the index of the message's type in Protocol.Msgs, as
// stamped by System.execSend, or -1 for hand-built messages that were
// never stamped. The verifier's reduction tables are keyed by it.
func (m Msg) TypeIdx() int { return m.tIdx - 1 }

// NumQueues reports the number of internal queues (ordered: one per
// class×src×dst triple; unordered: one bag per class).
func (n *Network) NumQueues() int { return len(n.queues) }

// Queue exposes queue i read-only for the verifier's reduction scans
// (id-freeness, capacity headroom). Callers must not mutate or retain
// the returned slice past the next network mutation.
func (n *Network) Queue(i int) []Msg { return n.queues[i] }

// Send enqueues a message; it fails when the target queue is full.
func (n *Network) Send(m Msg) error {
	i := n.qidx(m.Class, m.Src, m.Dst)
	limit := n.Capacity
	if !n.Ordered {
		limit = n.Capacity * n.Nodes * n.Nodes
	}
	if len(n.queues[i]) >= limit {
		return fmt.Errorf("network: channel overflow (%s)", m)
	}
	n.queues[i] = append(n.queues[i], m)
	return nil
}

// Deliverable enumerates the messages that may be delivered next: FIFO
// heads on an ordered network, every message on an unordered one. The
// returned handles stay valid until the next mutation.
type Deliverable struct {
	Queue int // internal queue index
	Pos   int // position within the queue (0 for ordered heads)
	Msg   Msg
}

// Deliverables lists the candidate deliveries in deterministic order.
func (n *Network) Deliverables() []Deliverable {
	return n.AppendDeliverables(nil)
}

// AppendDeliverables appends the candidate deliveries to buf in the same
// deterministic order as Deliverables, reusing buf's backing array — the
// allocation-free form for hot loops (checker workers, simulator steps).
func (n *Network) AppendDeliverables(buf []Deliverable) []Deliverable {
	for qi, q := range n.queues {
		if len(q) == 0 {
			continue
		}
		if n.Ordered {
			buf = append(buf, Deliverable{Queue: qi, Pos: 0, Msg: q[0]})
			continue
		}
		for pos, m := range q {
			buf = append(buf, Deliverable{Queue: qi, Pos: pos, Msg: m})
		}
	}
	return buf
}

// Remove takes a previously enumerated deliverable out of the network,
// shifting the tail in place (queue arrays are uniquely owned by their
// System, so no other state can observe the mutation).
func (n *Network) Remove(d Deliverable) {
	q := n.queues[d.Queue]
	copy(q[d.Pos:], q[d.Pos+1:])
	n.queues[d.Queue] = q[:len(q)-1]
}

// InFlight counts all queued messages.
func (n *Network) InFlight() int {
	total := 0
	for _, q := range n.queues {
		total += len(q)
	}
	return total
}

// Clone deep-copies the network. All queued messages share one backing
// array (three allocations total, whatever the queue count); queues that
// later outgrow their segment reallocate individually on append.
func (n *Network) Clone() *Network {
	c := *n
	c.queues = make([][]Msg, len(n.queues))
	total := 0
	for _, q := range n.queues {
		total += len(q)
	}
	if total > 0 {
		backing := make([]Msg, 0, total)
		for i, q := range n.queues {
			if len(q) == 0 {
				continue
			}
			off := len(backing)
			backing = append(backing, q...)
			c.queues[i] = backing[off:len(backing):len(backing)]
		}
	}
	return &c
}

// CloneInto deep-copies n's queues into dst, reusing dst's per-queue
// backing arrays. dst must come from the same topology (same ordered
// flag, node count and queue layout — typically a scratch Clone).
func (n *Network) CloneInto(dst *Network) {
	dst.Ordered = n.Ordered
	dst.Nodes = n.Nodes
	dst.Capacity = n.Capacity
	for i, q := range n.queues {
		dst.queues[i] = append(dst.queues[i][:0], q...)
	}
}
