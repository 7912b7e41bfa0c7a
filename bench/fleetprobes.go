package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"protogen/internal/bus"
	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/jobstore"
	"protogen/internal/protocols"
	"protogen/internal/verify"
)

// The probes below time the pieces a cached service job passes through,
// each on its own. dir is scratch space they may fill and must clear.

func meanS(total time.Duration, n int) float64 { return total.Seconds() / float64(n) }

// cacheProbe times the result cache: deriving a key, a hit, an append.
func cacheProbe(e *env, dir string) (map[string]float64, error) {
	n := e.sz.probeRequests
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		return nil, err
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		return nil, err
	}
	cfg := verify.QuickConfig()
	res := verify.Check(p, cfg)
	text, opts := dsl.Format(spec), core.NonStallingOpts().KeyString()

	cacheDir := filepath.Join(dir, "cache-probe")
	cache, err := verify.OpenResultCache(cacheDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)

	t0 := time.Now()
	var key string
	for i := 0; i < n; i++ {
		key = verify.CacheKey(text, opts, cfg)
	}
	keyS := meanS(time.Since(t0), n)

	t0 = time.Now()
	for i := 0; i < n; i++ {
		if err := cache.Put(fmt.Sprintf("%s-%d", key, i), res); err != nil {
			return nil, err
		}
	}
	putS := meanS(time.Since(t0), n)

	t0 = time.Now()
	for i := 0; i < n; i++ {
		got, ok := cache.Get(fmt.Sprintf("%s-%d", key, i))
		if !ok || got.States != res.States {
			return nil, fmt.Errorf("cache probe: entry %d lost", i)
		}
	}
	getS := meanS(time.Since(t0), n)
	if err := cache.Close(); err != nil {
		return nil, err
	}
	return map[string]float64{
		"verifycache.key_s":     keyS,
		"verifycache.get_hit_s": getS,
		"verifycache.put_s":     putS,
	}, nil
}

// probeRecord is shaped like a finished verify job.
func probeRecord(i int) jobstore.Record {
	now := time.Now()
	ok := true
	result, _ := json.Marshal(verify.Result{Protocol: "MSI", States: 11963, Edges: 28281, Depth: 46, Complete: true})
	return jobstore.Record{
		ID:        fmt.Sprintf("job-%d", i),
		Kind:      "verify",
		Request:   json.RawMessage(`{"kind":"verify","protocol":"MSI","mode":"nonstalling","caches":2}`),
		State:     jobstore.StateDone,
		Attempt:   1,
		Submitted: now, Updated: now, Started: &now, Finished: &now,
		Summary: "MSI: PASS", OK: &ok, Cached: true,
		Result: result,
	}
}

// jobstoreProbe times a Put in memory and in the WAL (fsync included),
// and a boot-time replay.
func jobstoreProbe(e *env, dir string) (map[string]float64, error) {
	n := e.sz.probeRequests
	mem := jobstore.NewMem()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := mem.Put(probeRecord(i)); err != nil {
			return nil, err
		}
	}
	memS := meanS(time.Since(t0), n)

	walDir := filepath.Join(dir, "wal-probe")
	defer os.RemoveAll(walDir)
	wal, err := jobstore.OpenWAL(walDir, jobstore.WALOptions{})
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if err := wal.Put(probeRecord(i)); err != nil {
			return nil, err
		}
	}
	walS := meanS(time.Since(t0), n)
	if err := wal.Close(); err != nil {
		return nil, err
	}

	// Replay: a log of walReplay records, written without syncing.
	replayDir := filepath.Join(dir, "replay-probe")
	defer os.RemoveAll(replayDir)
	wal, err = jobstore.OpenWAL(replayDir, jobstore.WALOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	for i := 0; i < e.sz.walReplay; i++ {
		if err := wal.Put(probeRecord(i)); err != nil {
			return nil, err
		}
	}
	if err := wal.Close(); err != nil {
		return nil, err
	}
	info, err := os.Stat(filepath.Join(replayDir, jobstore.WALName))
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	wal, err = jobstore.OpenWAL(replayDir, jobstore.WALOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	recs, err := wal.Load()
	replayS := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	if len(recs) != e.sz.walReplay {
		return nil, fmt.Errorf("jobstore probe: replay gave %d records, wrote %d", len(recs), e.sz.walReplay)
	}
	if err := wal.Close(); err != nil {
		return nil, err
	}
	return map[string]float64{
		"jobstore.mem_put_s":            memS,
		"jobstore.wal_put_s":            walS,
		"jobstore.wal_replay_s":         replayS,
		"jobstore.wal_bytes_per_record": float64(info.Size()) / float64(e.sz.walReplay),
	}, nil
}

type busMsg struct {
	Seq  int   `json:"seq"`
	Sent int64 `json:"sent"` // UnixNano at publish
}

// busProbe times the in-memory bus: one publish to its handler, through a
// plain subscription and through a two-member queue group, and a stream.
func busProbe(e *env, _ string) (map[string]float64, error) {
	n := e.sz.probeRequests
	ctx := context.Background()
	b := bus.NewMem()
	defer b.Close()

	got := make(chan float64, 1) // publish → handler seconds, one message in flight
	handler := func(m busMsg) { got <- time.Since(time.Unix(0, m.Sent)).Seconds() }
	pingPong := func(channel string) (float64, error) {
		lat := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			if err := bus.Publish(ctx, b, channel, busMsg{Seq: i, Sent: time.Now().UnixNano()}); err != nil {
				return 0, err
			}
			select {
			case l := <-got:
				lat = append(lat, l)
			case <-time.After(jobTimeLimit):
				return 0, fmt.Errorf("bus probe: message %d on %s never delivered", i, channel)
			}
		}
		return median(lat), nil
	}

	sub, err := bus.Subscribe(ctx, b, "probe.fanout", handler, nil)
	if err != nil {
		return nil, err
	}
	deliver, err := pingPong("probe.fanout")
	sub.Unsubscribe()
	if err != nil {
		return nil, err
	}

	for i := 0; i < 2; i++ {
		member, err := bus.QueueSubscribe(ctx, b, "probe.queue", "workers", handler, nil)
		if err != nil {
			return nil, err
		}
		defer member.Unsubscribe()
	}
	claim, err := pingPong("probe.queue")
	if err != nil {
		return nil, err
	}

	// Throughput: publish a stream, wait for the last handler call.
	done := make(chan struct{})
	count := 0
	stream, err := bus.Subscribe(ctx, b, "probe.stream", func(busMsg) {
		if count++; count == n {
			close(done)
		}
	}, nil)
	if err != nil {
		return nil, err
	}
	defer stream.Unsubscribe()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := bus.Publish(ctx, b, "probe.stream", busMsg{Seq: i}); err != nil {
			return nil, err
		}
	}
	select {
	case <-done:
	case <-time.After(jobTimeLimit):
		return nil, fmt.Errorf("bus probe: stream of %d never drained", n)
	}
	return map[string]float64{
		"bus.deliver_s":     deliver,
		"bus.queue_claim_s": claim,
		"bus.msgs_per_s":    float64(n) / time.Since(t0).Seconds(),
	}, nil
}
