package service

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"protogen/internal/bus"
	"protogen/internal/jobstore"
)

// Submit-path errors the HTTP layer maps onto status codes.
var (
	errDraining = fmt.Errorf("server shutting down")
)

// errQueueFull reports a submit bounced off the queue-depth cap.
type errQueueFull int

func (e errQueueFull) Error() string { return fmt.Sprintf("job queue full (%d pending)", int(e)) }

// errStore reports a submit the store could not persist; accepting it
// anyway would promise durability the server cannot deliver.
type errStore struct{ err error }

func (e errStore) Error() string { return fmt.Sprintf("job store unavailable: %v", e.err) }

// fleetStats counts protocol events; the chaos and load tests assert
// invariants over them (exactly one terminal transition per job, no
// duplicate accepted).
type fleetStats struct {
	Terminal     int // terminal transitions recorded (first writes)
	DupTerminal  int // duplicate terminal reports suppressed
	Stale        int // reports rejected by attempt/worker matching
	LeaseExpiry  int // running attempts reclaimed by the sweeper
	Retries      int // requeues with backoff (transient failure or expiry)
	DeadLettered int // jobs parked after exhausting MaxAttempts
	Redispatches int // queued jobs re-offered after a silent dispatch loss
}

// coordinator owns the fleet's job state machine. It is the ONLY
// writer of the job store: workers report over the bus and the
// coordinator serializes every transition under one mutex, persisting
// each accepted transition as a full-record snapshot before acting on
// it. All transitions are monotonic (a terminal state is never left)
// and guarded by (attempt, worker) matching, which makes the protocol
// safe over a transport that loses, duplicates or reorders messages:
// the worst a faulty transport can cause is wasted work, never a lost
// job or a double-recorded result.
type coordinator struct {
	cfg   Config
	store jobstore.Store
	b     bus.Bus
	warn  func(format string, args ...any)

	subs    []bus.Subscription
	sweepCh chan struct{}
	wg      sync.WaitGroup

	mu sync.Mutex
	// jobs is the one place a job lives in memory; the store is a log,
	// read once at boot.
	jobs map[string]*job //protogen:guardedby mu
	// order is first-submission order for listing; ids deleted from jobs
	// are skipped and compacted away lazily.
	order []string //protogen:guardedby mu
	// terminalQ is a FIFO of ids in terminal-transition order: eviction
	// pops its head instead of scanning every record (O(1) per evicted
	// job). Ids freed by DELETE before eviction are skipped when popped.
	terminalQ []string               //protogen:guardedby mu
	counts    map[jobstore.State]int //protogen:guardedby mu
	workers   map[string]time.Time   //protogen:guardedby mu — worker id → last beacon
	nextID    int                    //protogen:guardedby mu
	closed    bool                   //protogen:guardedby mu
	rng       uint64                 //protogen:guardedby mu — retry jitter stream
	stats     fleetStats             //protogen:guardedby mu
}

// job is all the coordinator holds for one id: the persisted record —
// handed to the store as it stands on every accepted transition — and
// what is ephemeral on purpose.
type job struct {
	jobstore.Record
	// progress is the latest snapshot: poll candy, not state, kept after
	// terminal so clients can still see how far a finished job got.
	progress *ProgressView
	// lastDispatch is when the queued job was last offered (zero: not
	// yet), so the sweeper can re-offer one whose dispatch died with a
	// worker or a lossy transport without hammering the bus every tick.
	lastDispatch time.Time
}

// busAction is a publish decided under the coordinator lock and sent
// after it is released (the bus blocks; the state machine must not).
type busAction struct {
	channel string
	payload any
}

// newCoordinator replays the store — recovering queued jobs for
// redispatch and orphaned-running jobs for the lease sweeper — then
// subscribes to the fleet's report channels and starts the sweeper.
func newCoordinator(cfg Config, store jobstore.Store, b bus.Bus, warn func(string, ...any)) (*coordinator, error) {
	c := &coordinator{
		cfg:     cfg,
		store:   store,
		b:       b,
		warn:    warn,
		sweepCh: make(chan struct{}),
		jobs:    map[string]*job{},
		counts:  map[jobstore.State]int{},
		workers: map[string]time.Time{},
		rng:     uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9,
	}
	recs, err := store.Load()
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		c.jobs[rec.ID] = &job{Record: rec}
		c.order = append(c.order, rec.ID)
		c.counts[rec.State]++
		if rec.State.Terminal() {
			c.terminalQ = append(c.terminalQ, rec.ID)
		}
		if n := numericID(rec.ID); n > c.nextID {
			c.nextID = n
		}
	}
	onErr := func(err error) { warn("coordinator: %v", err) }
	for _, sub := range []struct {
		channel string
		make    func() (bus.Subscription, error)
	}{
		{chanStarted, func() (bus.Subscription, error) {
			return bus.Subscribe(noCtx(), b, chanStarted, c.onStarted, onErr)
		}},
		{chanHeartbeat, func() (bus.Subscription, error) {
			return bus.Subscribe(noCtx(), b, chanHeartbeat, c.onHeartbeat, onErr)
		}},
		{chanProgress, func() (bus.Subscription, error) {
			return bus.Subscribe(noCtx(), b, chanProgress, c.onProgress, onErr)
		}},
		{chanDone, func() (bus.Subscription, error) {
			return bus.Subscribe(noCtx(), b, chanDone, c.onDone, onErr)
		}},
		{chanHello, func() (bus.Subscription, error) {
			return bus.Subscribe(noCtx(), b, chanHello, c.onHello, onErr)
		}},
	} {
		s, err := sub.make()
		if err != nil {
			c.unsubscribe()
			return nil, fmt.Errorf("subscribe %s: %w", sub.channel, err)
		}
		c.subs = append(c.subs, s)
	}
	c.wg.Add(1)
	go c.sweeper()
	return c, nil
}

// numericID extracts N from "job-N" ids so a restarted coordinator
// resumes numbering past everything it replayed.
func numericID(id string) int {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0
	}
	return n
}

// emit publishes the actions decided under the lock.
func (c *coordinator) emit(actions []busAction) {
	for _, a := range actions {
		if err := bus.Publish(noCtx(), c.b, a.channel, a.payload); err != nil {
			c.warn("coordinator: publish %s: %v", a.channel, err)
		}
	}
}

// abortAction builds the worker-abort command for a ghost or stale
// execution.
func abortAction(worker, id string) busAction {
	return busAction{channel: ctlChannel(worker), payload: controlMsg{ID: id, Action: "abort"}}
}

// dispatchActionLocked builds the dispatch offer for rec's next
// attempt and stamps the offer time.
func (c *coordinator) dispatchActionLocked(rec *job, now time.Time) busAction {
	rec.lastDispatch = now
	return busAction{channel: chanDispatch, payload: dispatchMsg{
		ID:      rec.ID,
		Attempt: rec.Attempt + 1,
		Request: rec.Request,
	}}
}

// setStateLocked moves rec between states, keeping the counts index
// and the terminal FIFO coherent. Monotonicity is the caller's
// contract: no terminal state is ever passed a second time.
func (c *coordinator) setStateLocked(rec *job, st jobstore.State) {
	c.counts[rec.State]--
	rec.State = st
	c.counts[st]++
	if st.Terminal() {
		c.terminalQ = append(c.terminalQ, rec.ID)
		c.stats.Terminal++
	}
}

// putLocked persists rec's current state. A store failure is warned
// and sticky in the store itself; the in-memory state machine stays
// authoritative and healthz degrades.
func (c *coordinator) putLocked(rec *job) {
	if err := c.store.Put(rec.Record); err != nil {
		c.warn("coordinator: persist %s: %v", rec.ID, err)
	}
}

// backoffLocked computes the retry delay before attempt n+1 after n
// attempts: exponential from RetryBase, capped at RetryCap, with
// seeded jitter in [50%,100%) so a burst of requeued jobs does not
// thunder back in lockstep.
func (c *coordinator) backoffLocked(attempts int) time.Duration {
	d := c.cfg.RetryBase
	for i := 1; i < attempts && d < c.cfg.RetryCap; i++ {
		d *= 2
	}
	if d > c.cfg.RetryCap {
		d = c.cfg.RetryCap
	}
	// splitmix64 step for the jitter fraction.
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	frac := float64((z^(z>>31))>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.5 + 0.5*frac))
}

// requeueLocked sends a non-terminal attempt back to the queue (or the
// dead-letter state when the budget is gone). cause lands on the
// failure chain; counted==true charges the attempt against MaxAttempts.
func (c *coordinator) requeueLocked(rec *job, cause string, counted bool, now time.Time) {
	rec.Failures = append(rec.Failures, cause)
	rec.Updated = now
	switch {
	case rec.CancelRequested:
		// The client's cancel wins over any retry: resolve it now.
		rec.Canceled = true
		fin := now
		rec.Finished = &fin
		c.setStateLocked(rec, jobstore.StateCanceled)
	case counted && rec.Attempt >= c.cfg.MaxAttempts:
		rec.Error = cause
		fin := now
		rec.Finished = &fin
		c.setStateLocked(rec, jobstore.StateDead)
		c.stats.DeadLettered++
	default:
		c.setStateLocked(rec, jobstore.StateQueued)
		if counted {
			rec.NotBefore = now.Add(c.backoffLocked(rec.Attempt))
		} else {
			rec.NotBefore = time.Time{}
		}
		rec.lastDispatch = time.Time{}
		c.stats.Retries++
	}
	rec.Worker = ""
	rec.LeaseExpiry = time.Time{}
	c.putLocked(rec)
}

// ---- submit / query / cancel (the HTTP-facing half) ----

// submit validates nothing (the HTTP layer already did), persists the
// job durably, and offers it to the fleet. The 202 the client sees is
// only sent after the store accepted the record. A non-nil answer is the
// job's outcome, found in the result cache at submit: the job is
// recorded done with it in that one store write, started and finished
// as it is submitted, and never queued or dispatched — so a full queue
// does not refuse it.
func (c *coordinator) submit(req Request, answer *doneMsg) (JobView, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return JobView{}, errStore{err}
	}
	now := time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return JobView{}, errDraining
	}
	if answer == nil && c.counts[jobstore.StateQueued] >= c.cfg.QueueDepth {
		c.mu.Unlock()
		return JobView{}, errQueueFull(c.cfg.QueueDepth)
	}
	c.nextID++
	rec := &job{Record: jobstore.Record{
		ID:        fmt.Sprintf("job-%d", c.nextID),
		Kind:      req.Kind,
		Request:   raw,
		State:     jobstore.StateQueued,
		Submitted: now,
		Updated:   now,
	}}
	if answer != nil {
		started := now
		rec.Started = &started
		settle(rec, *answer, now)
		rec.State = jobstore.StateDone
	}
	if err := c.store.Put(rec.Record); err != nil {
		c.nextID--
		c.mu.Unlock()
		return JobView{}, errStore{err}
	}
	c.jobs[rec.ID] = rec
	c.order = append(c.order, rec.ID)
	c.counts[rec.State]++
	// Evict before an answered job joins the terminal FIFO, so its own
	// submit never evicts it.
	c.evictLocked()
	var actions []busAction
	if answer != nil {
		c.terminalQ = append(c.terminalQ, rec.ID)
		c.stats.Terminal++
	} else {
		actions = append(actions, c.dispatchActionLocked(rec, now))
	}
	view := c.viewLocked(rec)
	c.mu.Unlock()
	c.emit(actions)
	return view, nil
}

// evictLocked drops the oldest terminal jobs while the record count
// exceeds MaxJobs — O(1) per evicted job via the terminal FIFO, where
// the old implementation rescanned every record on every submit.
// Queued and running jobs are never evicted.
func (c *coordinator) evictLocked() {
	for len(c.jobs) > c.cfg.MaxJobs && len(c.terminalQ) > 0 {
		id := c.terminalQ[0]
		c.terminalQ = c.terminalQ[1:]
		rec, ok := c.jobs[id]
		if !ok {
			continue // freed earlier by an explicit DELETE
		}
		if err := c.store.Delete(id); err != nil {
			c.warn("coordinator: evict %s: %v", id, err)
		}
		c.counts[rec.State]--
		delete(c.jobs, id)
	}
	c.compactOrderLocked()
}

// compactOrderLocked rebuilds the listing order once it accumulates
// more dead ids than live ones.
func (c *coordinator) compactOrderLocked() {
	if len(c.order) <= 2*len(c.jobs)+16 {
		return
	}
	kept := c.order[:0]
	for _, id := range c.order {
		if _, ok := c.jobs[id]; ok {
			kept = append(kept, id)
		}
	}
	c.order = kept
}

// viewLocked renders a job in the wire form.
func (c *coordinator) viewLocked(rec *job) JobView {
	v := JobView{
		ID:          rec.ID,
		Kind:        rec.Kind,
		Status:      Status(rec.State),
		Attempt:     rec.Attempt,
		Worker:      rec.Worker,
		Submitted:   rec.Submitted,
		Summary:     rec.Summary,
		Cached:      rec.Cached,
		Canceled:    rec.Canceled,
		Error:       rec.Error,
		Failures:    append([]string(nil), rec.Failures...),
		CorpusFiles: append([]string(nil), rec.CorpusFiles...),
	}
	if rec.Started != nil {
		ts := *rec.Started
		v.Started = &ts
	}
	if rec.Finished != nil {
		ts := *rec.Finished
		v.Finished = &ts
	}
	if rec.OK != nil {
		ok := *rec.OK
		v.OK = &ok
	}
	if p := rec.progress; p != nil {
		pc := *p
		v.Progress = &pc
	}
	return v
}

// view returns one job's wire form.
func (c *coordinator) view(id string) (JobView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return c.viewLocked(rec), true
}

// list returns every live job in first-submission order.
func (c *coordinator) list() []JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	views := make([]JobView, 0, len(c.jobs))
	for _, id := range c.order {
		if rec, ok := c.jobs[id]; ok {
			views = append(views, c.viewLocked(rec))
		}
	}
	return views
}

// result returns the terminal payload for GET /jobs/{id}/result.
func (c *coordinator) result(id string) (payload any, status int, found bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.jobs[id]
	if !ok {
		return nil, 0, false
	}
	switch {
	case len(rec.Result) > 0:
		return append(json.RawMessage(nil), rec.Result...), 200, true
	case rec.State == jobstore.StateFailed || rec.State == jobstore.StateDead:
		body := map[string]any{"error": rec.Error}
		if len(rec.Failures) > 0 {
			body["failures"] = append([]string(nil), rec.Failures...)
		}
		return body, 200, true
	default:
		return map[string]string{
			"error": fmt.Sprintf("job %s is %s; no result yet", rec.ID, rec.State),
		}, 409, true
	}
}

// cancel implements DELETE /jobs/{id}: queued resolves to canceled
// immediately, running records the cancel intent durably and aborts
// the worker, terminal frees the record.
func (c *coordinator) cancel(id string) (view JobView, deleted, found bool) {
	now := time.Now()
	var actions []busAction
	c.mu.Lock()
	rec, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return JobView{}, false, false
	}
	switch {
	case rec.State == jobstore.StateQueued:
		rec.Canceled = true
		rec.CancelRequested = true
		fin := now
		rec.Finished = &fin
		rec.Updated = now
		c.setStateLocked(rec, jobstore.StateCanceled)
		c.putLocked(rec)
	case rec.State == jobstore.StateRunning:
		if !rec.CancelRequested {
			rec.CancelRequested = true
			rec.Updated = now
			c.putLocked(rec)
		}
		actions = append(actions, abortAction(rec.Worker, id))
	default: // terminal: free the record and its retained result
		view = c.viewLocked(rec)
		if err := c.store.Delete(id); err != nil {
			c.warn("coordinator: delete %s: %v", id, err)
		}
		c.counts[rec.State]--
		delete(c.jobs, id)
		c.mu.Unlock()
		return view, true, true
	}
	view = c.viewLocked(rec)
	c.mu.Unlock()
	c.emit(actions)
	return view, false, true
}

// healthView is the fleet half of the healthz body.
type healthView struct {
	Counts       map[jobstore.State]int
	QueueDepth   int
	LeaseBacklog int
	WorkersLive  int
	Stats        fleetStats
}

// health snapshots the honest readiness numbers.
func (c *coordinator) health() healthView {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	h := healthView{
		Counts:     map[jobstore.State]int{},
		QueueDepth: c.counts[jobstore.StateQueued],
		Stats:      c.stats,
	}
	for st, n := range c.counts {
		if n != 0 {
			h.Counts[st] = n
		}
	}
	for _, rec := range c.jobs {
		if rec.State == jobstore.StateRunning && now.After(rec.LeaseExpiry) {
			h.LeaseBacklog++
		}
	}
	for _, seen := range c.workers {
		if now.Sub(seen) <= 3*c.cfg.HeartbeatEvery {
			h.WorkersLive++
		}
	}
	return h
}

// snapshotStats returns the protocol counters (test hook).
func (c *coordinator) snapshotStats() fleetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ---- bus handlers (the fleet-facing half) ----

// onStarted grants or refuses a worker's claim. Exactly one execution
// holds a job's lease at a time; every other claimant is aborted.
func (c *coordinator) onStarted(m startedMsg) {
	now := time.Now()
	var actions []busAction
	c.mu.Lock()
	c.workers[m.Worker] = now
	rec, ok := c.jobs[m.ID]
	switch {
	case !ok || rec.State.Terminal():
		// Unknown, evicted or already-settled job: stop the wasted work.
		actions = append(actions, abortAction(m.Worker, m.ID))
	case rec.State == jobstore.StateQueued && m.Attempt == rec.Attempt+1:
		rec.Attempt = m.Attempt
		rec.Worker = m.Worker
		rec.LeaseExpiry = now.Add(c.cfg.LeaseTTL)
		rec.Updated = now
		if rec.Started == nil {
			ts := now
			rec.Started = &ts
		}
		c.setStateLocked(rec, jobstore.StateRunning)
		c.putLocked(rec)
		if rec.CancelRequested {
			actions = append(actions, abortAction(m.Worker, m.ID))
		}
	case rec.State == jobstore.StateRunning && m.Attempt == rec.Attempt && m.Worker == rec.Worker:
		// Duplicated started (chaos): refresh the lease, in memory only.
		rec.LeaseExpiry = now.Add(c.cfg.LeaseTTL)
	default:
		// A ghost: a stale dispatch copy or a claim the lease holder beat.
		c.stats.Stale++
		actions = append(actions, abortAction(m.Worker, m.ID))
	}
	c.mu.Unlock()
	c.emit(actions)
}

// onHeartbeat extends the holder's lease. Extensions are deliberately
// in-memory only: persisting every beat would fsync the WAL per worker
// per second, and the only cost of losing extensions in a coordinator
// crash is a conservative early expiry, which the attempt matching
// already makes safe.
func (c *coordinator) onHeartbeat(m heartbeatMsg) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[m.Worker] = now
	rec, ok := c.jobs[m.ID]
	if ok && rec.State == jobstore.StateRunning && m.Attempt == rec.Attempt && m.Worker == rec.Worker {
		rec.LeaseExpiry = now.Add(c.cfg.LeaseTTL)
	}
}

// onProgress stores the newest snapshot; stale attempts' snapshots are
// dropped.
func (c *coordinator) onProgress(m progressMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.jobs[m.ID]
	if !ok || m.Attempt < rec.Attempt {
		return
	}
	v := m.View
	rec.progress = &v
}

// onHello records worker liveness.
func (c *coordinator) onHello(m helloMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[m.Worker] = time.Now()
}

// onDone applies an attempt's outcome. Acceptance is the heart of the
// "no duplicate terminal results" guarantee: a report must match the
// record's current attempt — and, when the record is running, its
// lease holder — or it is a ghost and is dropped.
func (c *coordinator) onDone(m doneMsg) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[m.Worker] = now
	rec, ok := c.jobs[m.ID]
	if !ok {
		c.stats.Stale++
		return
	}
	if rec.State.Terminal() {
		c.stats.DupTerminal++
		return
	}
	switch {
	case rec.State == jobstore.StateRunning && m.Attempt == rec.Attempt && m.Worker == rec.Worker:
		// The lease holder reporting: the normal path.
	case rec.State == jobstore.StateQueued && m.Attempt == rec.Attempt+1:
		// The started message was lost; the outcome arrives first and
		// implies the start.
		rec.Attempt = m.Attempt
		if rec.Started == nil {
			ts := now
			rec.Started = &ts
		}
	case rec.State == jobstore.StateQueued && m.Attempt == rec.Attempt && m.Status == StatusDone:
		// A completed result from an attempt the sweeper had already
		// requeued: accept it rather than recompute.
	default:
		c.stats.Stale++
		return
	}
	if m.Progress != nil {
		v := *m.Progress
		rec.progress = &v
	}
	rec.Updated = now
	switch m.Status {
	case StatusDone, StatusCanceled:
		settle(rec, m, now)
		if m.Status == StatusCanceled {
			c.setStateLocked(rec, jobstore.StateCanceled)
		} else {
			c.setStateLocked(rec, jobstore.StateDone)
		}
		c.putLocked(rec)
	case StatusFailed:
		if m.Transient {
			c.requeueLocked(rec, fmt.Sprintf("attempt %d: %s", m.Attempt, m.Error), true, now)
			return
		}
		fin := now
		rec.Finished = &fin
		rec.Summary = m.Summary
		rec.Error = m.Error
		rec.Failures = append(rec.Failures, fmt.Sprintf("attempt %d: %s", m.Attempt, m.Error))
		rec.Worker = ""
		rec.LeaseExpiry = time.Time{}
		c.setStateLocked(rec, jobstore.StateFailed)
		c.putLocked(rec)
	default:
		c.stats.Stale++
	}
}

// settle copies a done or canceled report onto rec, finished at now:
// what a finished job keeps of its outcome, wherever it came from.
func settle(rec *job, m doneMsg, now time.Time) {
	fin := now
	rec.Finished = &fin
	rec.Summary = m.Summary
	rec.OK = m.OK
	rec.Error = m.Error
	rec.Cached = m.Cached
	rec.Canceled = m.Canceled || m.Status == StatusCanceled
	rec.Result = m.Result
	rec.CorpusFiles = m.CorpusFiles
	rec.Worker = ""
	rec.LeaseExpiry = time.Time{}
}

// ---- sweeper / lifecycle ----

// sweeper is the fleet's recovery loop: it reclaims expired leases
// (retry with backoff or dead-letter) and re-offers queued jobs whose
// dispatch was lost — to a crashed worker's buffer, a lossy transport,
// or a coordinator that restarted between persisting and publishing.
func (c *coordinator) sweeper() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.emit(c.sweep(time.Now()))
		case <-c.sweepCh:
			return
		}
	}
}

// sweep runs one recovery pass and returns the publishes it decided.
func (c *coordinator) sweep(now time.Time) []busAction {
	var actions []busAction
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		rec, ok := c.jobs[id]
		if !ok {
			continue
		}
		switch rec.State {
		case jobstore.StateRunning:
			if now.After(rec.LeaseExpiry) {
				c.stats.LeaseExpiry++
				c.requeueLocked(rec, fmt.Sprintf(
					"attempt %d: lease expired (worker %s)", rec.Attempt, rec.Worker), true, now)
			}
		case jobstore.StateQueued:
			if rec.NotBefore.After(now) {
				continue
			}
			if rec.lastDispatch.IsZero() {
				actions = append(actions, c.dispatchActionLocked(rec, now))
			} else if now.Sub(rec.lastDispatch) >= c.cfg.RedispatchEvery {
				c.stats.Redispatches++
				actions = append(actions, c.dispatchActionLocked(rec, now))
			}
		}
	}
	for w, seen := range c.workers {
		if now.Sub(seen) > 6*c.cfg.HeartbeatEvery {
			delete(c.workers, w)
		}
	}
	return actions
}

// drain rejects further submits while shutdown proceeds.
func (c *coordinator) drain() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// waitSettled blocks until no record is running (every in-flight
// outcome has been applied) or ctx expires.
func (c *coordinator) waitSettled(deadline <-chan struct{}) bool {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.mu.Lock()
			running := c.counts[jobstore.StateRunning]
			c.mu.Unlock()
			if running == 0 {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

// releaseRunning requeues every running job — the shutdown-deadline
// path: their workers were killed mid-flight, no outcome is coming,
// and a restarted server must re-run them rather than lose them. The
// release rides the failure chain but does not burn retry budget:
// shutting the server down is not the job's fault.
func (c *coordinator) releaseRunning(reason string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		rec, ok := c.jobs[id]
		if !ok || rec.State != jobstore.StateRunning {
			continue
		}
		c.requeueLocked(rec, fmt.Sprintf("attempt %d: %s", rec.Attempt, reason), false, now)
	}
}

// close stops the sweeper and unsubscribes; the store and bus belong
// to the Server (or the caller) and are closed there.
func (c *coordinator) close() {
	c.drain()
	close(c.sweepCh)
	c.wg.Wait()
	c.unsubscribe()
}

func (c *coordinator) unsubscribe() {
	for _, s := range c.subs {
		s.Unsubscribe()
	}
}
