package bus_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"protogen/internal/bus"
)

// wire is the tests' typed payload.
type wire struct {
	Seq  int    `json:"seq"`
	Body string `json:"body"`
}

// body derives the integrity-checked payload body for a sequence number.
func body(seq int) string { return fmt.Sprintf("payload-%d-abcdefghij", seq) }

func msg(seq int) wire { return wire{Seq: seq, Body: body(seq)} }

// open builds a bus with newBus and schedules its teardown.
func open(t *testing.T, newBus func() *bus.Mem) *bus.Mem {
	t.Helper()
	b := newBus()
	t.Cleanup(func() {
		if err := b.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return b
}

// eventually polls cond until it holds or five seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func publish(t *testing.T, b *bus.Mem, channel string, seqs ...int) {
	t.Helper()
	for _, seq := range seqs {
		if err := bus.Publish(context.Background(), b, channel, msg(seq)); err != nil {
			t.Fatalf("publish %d: %v", seq, err)
		}
	}
}

// recorder collects typed deliveries thread-safely and checks each is
// one the test published, byte-intact.
type recorder struct {
	t    *testing.T
	mu   sync.Mutex
	msgs []wire
}

func (r *recorder) add(v wire) {
	if v.Body != body(v.Seq) {
		r.t.Errorf("corrupted delivery: %+v", v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs = append(r.msgs, v)
}

func (r *recorder) snapshot() []wire {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]wire(nil), r.msgs...)
}

func (r *recorder) count() int { return len(r.snapshot()) }

func subscribe(t *testing.T, b *bus.Mem, channel string, r *recorder) *bus.Subscription {
	t.Helper()
	sub, err := bus.Subscribe(context.Background(), b, channel, r.add, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Unsubscribe)
	return sub
}

func queueSubscribe(t *testing.T, b *bus.Mem, channel string, r *recorder) *bus.Subscription {
	t.Helper()
	sub, err := bus.QueueSubscribe(context.Background(), b, channel, "workers", r.add, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Unsubscribe)
	return sub
}

// TestMemConformance pins the bus's delivery contract: lossless,
// at-most-once and ordered per subscriber, with queue groups splitting
// the stream and Unsubscribe, Close and ctx cancellation honoured.
func TestMemConformance(t *testing.T) { conformance(t, bus.NewMem) }

// TestMemSmallBufferConformance re-runs the contract with a one-message
// per-subscription queue, so the backpressure path (blocking sends) is
// exercised throughout.
func TestMemSmallBufferConformance(t *testing.T) {
	conformance(t, func() *bus.Mem { return bus.NewMemBuffer(1) })
}

// conformance runs the delivery-contract cases on buses built by newBus.
func conformance(t *testing.T, newBus func() *bus.Mem) {
	t.Run("RoundTrip", func(t *testing.T) {
		b := open(t, newBus)
		r := &recorder{t: t}
		subscribe(t, b, "t.roundtrip", r)
		publish(t, b, "t.roundtrip", 7)
		eventually(t, "delivery", func() bool { return r.count() == 1 })
		if got := r.snapshot()[0]; got != msg(7) {
			t.Fatalf("delivered %+v", got)
		}
	})

	t.Run("FanOut", func(t *testing.T) {
		b := open(t, newBus)
		a, c := &recorder{t: t}, &recorder{t: t}
		subscribe(t, b, "t.fanout", a)
		subscribe(t, b, "t.fanout", c)
		publish(t, b, "t.fanout", 1)
		eventually(t, "both subscribers", func() bool { return a.count() == 1 && c.count() == 1 })
	})

	t.Run("QueueGroup", func(t *testing.T) {
		b := open(t, newBus)
		const n = 120
		members := []*recorder{{t: t}, {t: t}, {t: t}}
		for _, m := range members {
			queueSubscribe(t, b, "t.queue", m)
		}
		for seq := 0; seq < n; seq++ {
			publish(t, b, "t.queue", seq)
		}
		total := func() int { return members[0].count() + members[1].count() + members[2].count() }
		eventually(t, "queue-group drain", func() bool { return total() >= n })
		time.Sleep(20 * time.Millisecond) // settle: catch over-delivery
		if got := total(); got != n {
			t.Fatalf("queue group delivered %d of %d published (want exactly once)", got, n)
		}
		seen := map[int]int{}
		for _, m := range members {
			for _, v := range m.snapshot() {
				seen[v.Seq]++
			}
		}
		for seq := 0; seq < n; seq++ {
			if seen[seq] != 1 {
				t.Fatalf("message %d delivered %d times within the group", seq, seen[seq])
			}
		}
	})

	t.Run("QueueRebalance", func(t *testing.T) {
		b := open(t, newBus)
		gone, stay := &recorder{t: t}, &recorder{t: t}
		subGone := queueSubscribe(t, b, "t.rebalance", gone)
		queueSubscribe(t, b, "t.rebalance", stay)
		subGone.Unsubscribe()
		publish(t, b, "t.rebalance", 1, 2, 3)
		eventually(t, "the survivor to take the stream", func() bool { return stay.count() == 3 })
		if gone.count() != 0 {
			t.Fatalf("unsubscribed member received %d messages", gone.count())
		}
	})

	t.Run("Ordered", func(t *testing.T) {
		b := open(t, newBus)
		r := &recorder{t: t}
		subscribe(t, b, "t.ordered", r)
		const n = 100
		for seq := 0; seq < n; seq++ {
			publish(t, b, "t.ordered", seq)
		}
		eventually(t, "ordered drain", func() bool { return r.count() == n })
		for i, v := range r.snapshot() {
			if v.Seq != i {
				t.Fatalf("position %d delivered seq %d", i, v.Seq)
			}
		}
	})

	t.Run("Unsubscribe", func(t *testing.T) {
		b := open(t, newBus)
		r := &recorder{t: t}
		sub := subscribe(t, b, "t.unsub", r)
		publish(t, b, "t.unsub", 1)
		eventually(t, "delivery", func() bool { return r.count() == 1 })
		sub.Unsubscribe()
		sub.Unsubscribe() // idempotent
		for i := 0; i < 20; i++ {
			publish(t, b, "t.unsub", 2)
		}
		time.Sleep(30 * time.Millisecond)
		if got := r.count(); got != 1 {
			t.Fatalf("%d deliveries after Unsubscribe returned", got-1)
		}
	})

	t.Run("Close", func(t *testing.T) {
		b := newBus()
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Publish(context.Background(), "t.closed", []byte("x")); !errors.Is(err, bus.ErrClosed) {
			t.Fatalf("publish on closed bus: %v, want ErrClosed", err)
		}
		if _, err := b.Subscribe(context.Background(), "t.closed", func(bus.Message) {}); !errors.Is(err, bus.ErrClosed) {
			t.Fatalf("subscribe on closed bus: %v, want ErrClosed", err)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
	})

	t.Run("ConcurrentPublishers", func(t *testing.T) {
		b := open(t, newBus)
		r := &recorder{t: t}
		subscribe(t, b, "t.concurrent", r)
		const pubs, per = 8, 25
		var wg sync.WaitGroup
		for p := 0; p < pubs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := bus.Publish(context.Background(), b, "t.concurrent", msg(p*per+i)); err != nil {
						t.Errorf("publish: %v", err)
						return
					}
				}
			}(p)
		}
		wg.Wait()
		eventually(t, "concurrent drain", func() bool { return r.count() == pubs*per })
		seen := map[int]bool{}
		for _, v := range r.snapshot() {
			if seen[v.Seq] {
				t.Fatalf("message %d delivered twice", v.Seq)
			}
			seen[v.Seq] = true
		}
	})

	t.Run("CanceledContext", func(t *testing.T) {
		b := open(t, newBus)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := b.Subscribe(ctx, "t.ctx", func(bus.Message) {}); !errors.Is(err, context.Canceled) {
			t.Fatalf("subscribe with a canceled ctx: %v", err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = b.Publish(ctx, "t.ctx", []byte("x")) // error or silent drop, but no hang
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Publish hung on a canceled context")
		}
	})
}

// TestMemBackpressure: a handler that does not return fills its
// subscription's queue; the next Publish blocks rather than dropping,
// and yields to ctx cancellation.
func TestMemBackpressure(t *testing.T) {
	b := open(t, bus.NewMem)
	release := make(chan struct{})
	defer close(release)
	entered := make(chan struct{}, 1)
	sub, err := b.Subscribe(context.Background(), "t.full", func(bus.Message) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if err := b.Publish(context.Background(), "t.full", nil); err != nil {
		t.Fatal(err)
	}
	<-entered // the handler holds the first message; the queue is empty
	type stop struct {
		queued int
		err    error
	}
	publishing := make(chan stop, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for n := 0; ; n++ {
			if err := b.Publish(ctx, "t.full", nil); err != nil {
				publishing <- stop{n, err}
				return
			}
		}
	}()
	select {
	case s := <-publishing:
		t.Fatalf("Publish to a full queue returned %v instead of blocking", s.err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case s := <-publishing:
		if !errors.Is(s.err, context.Canceled) {
			t.Fatalf("blocked Publish returned %v, want context.Canceled", s.err)
		}
		if s.queued != 256 {
			t.Fatalf("Publish blocked after %d queued messages, want the 256-message buffer", s.queued)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Publish ignored ctx cancellation")
	}
}

// TestTypedDecodeErrors: a payload that does not decode is dropped and
// surfaced to the error hook, never the handler.
func TestTypedDecodeErrors(t *testing.T) {
	m := bus.NewMem()
	defer m.Close()
	type payload struct {
		N int `json:"n"`
	}
	var mu sync.Mutex
	var got []int
	var errs int
	sub, err := bus.Subscribe(context.Background(), m, "typed", func(p payload) {
		mu.Lock()
		got = append(got, p.N)
		mu.Unlock()
	}, func(error) {
		mu.Lock()
		errs++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if err := m.Publish(context.Background(), "typed", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if err := bus.Publish(context.Background(), m, "typed", payload{N: 9}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		ok := len(got) == 1 && errs == 1
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("got=%v errs=%d", got, errs)
		}
		time.Sleep(time.Millisecond)
	}
	if got[0] != 9 {
		t.Fatalf("decoded %v", got)
	}
}
