// Package bus is a small in-process typed publish/subscribe bus with
// queue-subscriber semantics: N members of a queue group claim each
// message competitively, every plain subscriber sees every message.
// Nothing in the product imports it; bench/fleetprobes.go times it.
package bus

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
)

// Message is one delivery. The payload is opaque to the bus.
type Message struct {
	Channel string
	Payload []byte
}

// Handler consumes one delivery. Handlers run on the subscription's
// own delivery goroutine: one handler invocation at a time per
// subscription, concurrent across subscriptions. A handler may publish
// (deliveries are decoupled from publishes), but must not block
// forever — it stalls only its own subscription's stream.
type Handler func(msg Message)

// ErrClosed is returned by Publish/Subscribe on a closed bus.
var ErrClosed = fmt.Errorf("bus: closed")

// defaultBuffer is the per-subscription queue capacity. A full queue
// backpressures publishers rather than dropping.
const defaultBuffer = 256

// Mem is the bus: lossless, at-most-once, ordered per subscriber.
// Each subscription owns a buffered queue and a delivery goroutine, so
// publishers never run handlers inline (a handler may itself publish
// without re-entering the bus) and a slow subscriber backpressures
// its publishers instead of growing without bound.
type Mem struct {
	mu       sync.Mutex
	channels map[string]*memChannel //protogen:guardedby mu
	closed   bool                   //protogen:guardedby mu
	buffer   int                    // per-subscription queue capacity
}

// memChannel is one channel's subscriber registry.
type memChannel struct {
	plain  []*Subscription
	queues map[string]*memQueue
}

// memQueue is one queue group: members split the stream.
type memQueue struct {
	members []*Subscription
	rr      int // round-robin tie-breaker
}

// Subscription is one live registration: a buffered queue drained by a
// dedicated delivery goroutine.
type Subscription struct {
	bus     *Mem
	channel string
	queue   string // "" for plain subscribers
	h       Handler
	ch      chan Message
	done    chan struct{}
	once    sync.Once
}

// NewMem builds a bus.
func NewMem() *Mem { return newMem(defaultBuffer) }

// newMem builds a bus whose subscriptions queue at most buffer
// messages each; the tests shrink it to keep every send near the
// backpressure path.
func newMem(buffer int) *Mem {
	return &Mem{channels: map[string]*memChannel{}, buffer: buffer}
}

// Publish delivers payload to the channel's plain subscribers and one
// member of each queue group; a payload no subscriber wants is dropped.
// Sends block when a subscriber's queue is full (backpressure) but
// always yield to ctx cancellation, unsubscription and bus close.
func (m *Mem) Publish(ctx context.Context, channel string, payload []byte) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	var targets []*Subscription
	if c := m.channels[channel]; c != nil {
		targets = append(targets, c.plain...)
		for _, q := range c.queues {
			if s := q.pickLocked(); s != nil {
				targets = append(targets, s)
			}
		}
	}
	m.mu.Unlock()
	msg := Message{Channel: channel, Payload: payload}
	for _, s := range targets {
		select {
		case s.ch <- msg:
		case <-s.done: // unsubscribed mid-send; delivery forfeited
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// pickLocked (m.mu held) chooses the queue member with the smallest
// backlog — an idle worker claims before a busy one — breaking ties
// round-robin so equal members split the stream fairly.
func (q *memQueue) pickLocked() *Subscription {
	if len(q.members) == 0 {
		return nil
	}
	q.rr++
	best := q.members[q.rr%len(q.members)]
	for i := range q.members {
		if s := q.members[(q.rr+i)%len(q.members)]; len(s.ch) < len(best.ch) {
			best = s
		}
	}
	return best
}

// Subscribe registers a fan-out subscriber: every publish on channel is
// delivered to it.
func (m *Mem) Subscribe(ctx context.Context, channel string, h Handler) (*Subscription, error) {
	return m.subscribe(ctx, channel, "", h)
}

// QueueSubscribe registers a queue-group member: each publish on
// channel is delivered to one member of each named group, so N members
// split the stream competitively.
func (m *Mem) QueueSubscribe(ctx context.Context, channel, queue string, h Handler) (*Subscription, error) {
	return m.subscribe(ctx, channel, queue, h)
}

func (m *Mem) subscribe(ctx context.Context, channel, queue string, h Handler) (*Subscription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &Subscription{
		bus:     m,
		channel: channel,
		queue:   queue,
		h:       h,
		ch:      make(chan Message, m.buffer),
		done:    make(chan struct{}),
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	c := m.channels[channel]
	if c == nil {
		c = &memChannel{queues: map[string]*memQueue{}}
		m.channels[channel] = c
	}
	if queue == "" {
		c.plain = append(c.plain, s)
	} else {
		q := c.queues[queue]
		if q == nil {
			q = &memQueue{}
			c.queues[queue] = q
		}
		q.members = append(q.members, s)
	}
	m.mu.Unlock()
	go s.deliver()
	return s, nil
}

// deliver drains the subscription queue until Unsubscribe or Close.
func (s *Subscription) deliver() {
	for {
		select {
		case msg := <-s.ch:
			s.h(msg)
		case <-s.done:
			return
		}
	}
}

// Unsubscribe stops delivery and removes the registration. Buffered
// messages are discarded; an in-flight handler may still finish.
// Idempotent.
func (s *Subscription) Unsubscribe() {
	s.once.Do(func() {
		close(s.done)
		m := s.bus
		m.mu.Lock()
		if c := m.channels[s.channel]; c != nil {
			if s.queue == "" {
				c.plain = removeSub(c.plain, s)
			} else if q := c.queues[s.queue]; q != nil {
				q.members = removeSub(q.members, s)
				if len(q.members) == 0 {
					delete(c.queues, s.queue)
				}
			}
			if len(c.plain) == 0 && len(c.queues) == 0 {
				delete(m.channels, s.channel)
			}
		}
		m.mu.Unlock()
	})
}

func removeSub(subs []*Subscription, s *Subscription) []*Subscription {
	for i, cand := range subs {
		if cand == s {
			return append(subs[:i], subs[i+1:]...)
		}
	}
	return subs
}

// Close stops every subscription and fails further publishes and
// subscriptions. Idempotent.
func (m *Mem) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	var subs []*Subscription
	for _, c := range m.channels {
		subs = append(subs, c.plain...)
		for _, q := range c.queues {
			subs = append(subs, q.members...)
		}
	}
	m.channels = map[string]*memChannel{}
	m.mu.Unlock()
	for _, s := range subs {
		s.Unsubscribe()
	}
	return nil
}

// Publish JSON-encodes v and publishes it: channels carry one wire type
// each, agreed by publisher and subscriber.
func Publish[T any](ctx context.Context, b *Mem, channel string, v T) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("bus: encode %s: %w", channel, err)
	}
	return b.Publish(ctx, channel, data)
}

// Subscribe registers a typed fan-out subscriber: each delivery is
// JSON-decoded into T and handed to h. Payloads that do not decode are
// dropped; pass onErr to observe them (nil ignores).
func Subscribe[T any](ctx context.Context, b *Mem, channel string, h func(T), onErr func(error)) (*Subscription, error) {
	return b.Subscribe(ctx, channel, decode(channel, h, onErr))
}

// QueueSubscribe registers a typed queue-group member; see
// Mem.QueueSubscribe for the competitive-claim semantics.
func QueueSubscribe[T any](ctx context.Context, b *Mem, channel, queue string, h func(T), onErr func(error)) (*Subscription, error) {
	return b.QueueSubscribe(ctx, channel, queue, decode(channel, h, onErr))
}

// decode adapts a typed handler onto the raw Handler contract.
func decode[T any](channel string, h func(T), onErr func(error)) Handler {
	return func(msg Message) {
		var v T
		if err := json.Unmarshal(msg.Payload, &v); err != nil {
			if onErr != nil {
				onErr(fmt.Errorf("bus: decode %s: %w", channel, err))
			}
			return
		}
		h(v)
	}
}
