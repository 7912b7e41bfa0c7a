package bus

import (
	"context"
	"sync"
	"time"
)

// ChaosConfig tunes the fault-injection decorator. All faults are
// driven by one seeded deterministic stream, so a failing chaos run
// replays exactly from its seed.
type ChaosConfig struct {
	// Seed feeds the fault stream (0 is a valid, fixed seed).
	Seed int64
	// Drop is the probability in [0,1] that a publish is silently lost
	// before reaching any subscriber.
	Drop float64
	// Dup is the probability that a publish is delivered twice. On a
	// queue group the two copies may land on different members — the
	// classic at-least-once double-claim.
	Dup float64
	// MaxDelay delays each delivery copy uniformly in [0, MaxDelay),
	// reordering concurrent traffic. 0 disables delays.
	MaxDelay time.Duration
}

// ChaosStats counts the faults actually injected.
type ChaosStats struct {
	Published  int // publishes accepted (incl. dropped ones)
	Dropped    int
	Duplicated int
	Delayed    int
}

// ChaosBus decorates an inner transport with seeded drop / delay /
// duplicate faults at the publish boundary, weakening the inner
// guarantees to at-least-maybe-once: exactly the contract the fleet
// protocol must survive. Subscriptions pass through untouched.
type ChaosBus struct {
	inner Bus
	cfg   ChaosConfig

	// lifecycle for delayed deliveries: Close cancels the context so
	// pending timers become no-ops.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	rng    uint64                    //protogen:guardedby mu
	stats  ChaosStats                //protogen:guardedby mu
	timers map[*pendingSend]struct{} //protogen:guardedby mu
	wg     sync.WaitGroup
}

// pendingSend is one scheduled delayed delivery; the holder exists so
// the timer handle can be registered under the mutex before the timer
// is armed.
type pendingSend struct {
	tm *time.Timer
}

// Chaos wraps inner. Closing the ChaosBus closes inner too.
func Chaos(inner Bus, cfg ChaosConfig) *ChaosBus {
	ctx, cancel := context.WithCancel(context.Background())
	return &ChaosBus{
		inner:  inner,
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		rng:    uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		timers: map[*pendingSend]struct{}{},
	}
}

// fracLocked maps one splitmix64 step over the seeded stream onto
// [0,1). The caller holds c.mu.
func (c *ChaosBus) fracLocked() float64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64((z^(z>>31))>>11) / (1 << 53)
}

// Guarantees weakens the inner contract by the configured faults.
func (c *ChaosBus) Guarantees() Guarantees {
	g := c.inner.Guarantees()
	if c.cfg.Drop > 0 {
		g.Lossless = false
	}
	if c.cfg.Dup > 0 {
		g.AtMostOnce = false
	}
	if c.cfg.MaxDelay > 0 {
		g.Ordered = false
	}
	return g
}

// Stats snapshots the injected-fault counters.
func (c *ChaosBus) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Publish rolls the fault dice: the message is dropped, published
// once or twice, each copy immediately or after a seeded delay.
func (c *ChaosBus) Publish(ctx context.Context, channel string, payload []byte) error {
	if c.ctx.Err() != nil {
		return ErrClosed
	}
	c.mu.Lock()
	c.stats.Published++
	if c.cfg.Drop > 0 && c.fracLocked() < c.cfg.Drop {
		c.stats.Dropped++
		c.mu.Unlock()
		return nil // lost in transit; the caller believes it sent
	}
	copies := 1
	if c.cfg.Dup > 0 && c.fracLocked() < c.cfg.Dup {
		copies = 2
		c.stats.Duplicated++
	}
	delays := make([]time.Duration, copies)
	for i := range delays {
		if c.cfg.MaxDelay > 0 {
			delays[i] = time.Duration(c.fracLocked() * float64(c.cfg.MaxDelay))
			if delays[i] > 0 {
				c.stats.Delayed++
			}
		}
	}
	c.mu.Unlock()

	for _, d := range delays {
		if d <= 0 {
			if err := c.inner.Publish(ctx, channel, payload); err != nil {
				return err
			}
			continue
		}
		c.publishLater(channel, payload, d)
	}
	return nil
}

// publishLater schedules one delayed delivery copy. The copy rides the
// decorator's own lifecycle context — the original publisher has moved
// on — and Close flushes the timer set.
func (c *ChaosBus) publishLater(channel string, payload []byte, d time.Duration) {
	c.mu.Lock()
	if c.ctx.Err() != nil {
		c.mu.Unlock()
		return
	}
	c.wg.Add(1)
	p := &pendingSend{}
	c.timers[p] = struct{}{}
	p.tm = time.AfterFunc(d, func() {
		defer c.wg.Done()
		c.mu.Lock()
		delete(c.timers, p)
		c.mu.Unlock()
		_ = c.inner.Publish(c.ctx, channel, payload) // closed-bus errors are moot
	})
	c.mu.Unlock()
}

// Subscribe passes through to the inner transport.
func (c *ChaosBus) Subscribe(ctx context.Context, channel string, h Handler) (Subscription, error) {
	return c.inner.Subscribe(ctx, channel, h)
}

// QueueSubscribe passes through to the inner transport.
func (c *ChaosBus) QueueSubscribe(ctx context.Context, channel, queue string, h Handler) (Subscription, error) {
	return c.inner.QueueSubscribe(ctx, channel, queue, h)
}

// Close cancels pending delayed deliveries and closes the inner bus.
func (c *ChaosBus) Close() error {
	c.cancel()
	c.mu.Lock()
	for p := range c.timers {
		if p.tm.Stop() {
			c.wg.Done()
		}
	}
	c.timers = map[*pendingSend]struct{}{}
	c.mu.Unlock()
	c.wg.Wait() // timers that already fired finish their publish
	return c.inner.Close()
}
