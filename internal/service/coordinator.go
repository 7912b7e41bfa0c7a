package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

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

// fleetStats counts transitions; the load test asserts exactly one
// terminal transition per job across restarts.
type fleetStats struct {
	Terminal     int // terminal transitions recorded
	Retries      int // running jobs requeued: interrupted by a restart or released at shutdown
	DeadLettered int // jobs parked after MaxAttempts interrupted attempts
}

// coordinator owns every job. It is the ONLY writer of the job store:
// each transition happens under one mutex and is persisted as a
// full-record snapshot before anyone acts on it. Queued ids wait in one
// FIFO that Workers runner goroutines drain, each calling the Executor
// directly and settling the job when the call returns. A job's cancel
// is its context. Records only move forward (a terminal state is never
// left), and an outcome is accepted only from the attempt the record
// is running, so an outcome that comes back after its record was
// released by a shutdown deadline is dropped.
type coordinator struct {
	cfg   Config
	store jobstore.Store
	exec  Executor
	warn  func(format string, args ...any)

	// runCtx parents every running attempt's context; shutdown cancels it.
	runCtx    context.Context
	cancelRun context.CancelFunc
	// wake holds a token while an idle runner may find work in the
	// queue; stop is closed when the coordinator drains.
	wake    chan struct{}
	stop    chan struct{}
	runners sync.WaitGroup

	mu sync.Mutex
	// jobs is the one place a job lives in memory; the store is a log,
	// read once at boot.
	jobs map[string]*job //protogen:guardedby mu
	// order is first-submission order for listing; ids deleted from jobs
	// are skipped and compacted away lazily.
	order []string //protogen:guardedby mu
	// queue is the FIFO of ids waiting for a runner. Ids that stopped
	// being queued (canceled, then maybe freed) are skipped when popped.
	queue []string //protogen:guardedby mu
	// terminalQ is a FIFO of ids in terminal-transition order: eviction
	// pops its head instead of scanning every record (O(1) per evicted
	// job). Ids freed by DELETE before eviction are skipped when popped.
	terminalQ []string               //protogen:guardedby mu
	counts    map[jobstore.State]int //protogen:guardedby mu
	nextID    int                    //protogen:guardedby mu
	closed    bool                   //protogen:guardedby mu
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
	// cancel stops the running attempt's executor; nil unless running.
	cancel context.CancelFunc
}

// newCoordinator replays the store and starts cfg.Workers runners.
// Queued jobs are queued again in submission order. A job the log left
// running was interrupted when the process died: it is requeued as its
// next attempt, or dead-lettered once MaxAttempts attempts have been
// interrupted, so a job that kills the process cannot do so forever.
func newCoordinator(cfg Config, store jobstore.Store, exec Executor) (*coordinator, error) {
	c := &coordinator{
		cfg:    cfg,
		store:  store,
		exec:   exec,
		warn:   cfg.Warn,
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		jobs:   map[string]*job{},
		counts: map[jobstore.State]int{},
	}
	recs, err := store.Load()
	if err != nil {
		return nil, err
	}
	now := time.Now()
	for _, r := range recs {
		rec := &job{Record: r}
		c.jobs[r.ID] = rec
		c.order = append(c.order, r.ID)
		c.counts[r.State]++
		if n := numericID(r.ID); n > c.nextID {
			c.nextID = n
		}
		switch {
		case r.State.Terminal():
			c.terminalQ = append(c.terminalQ, r.ID)
		case r.State == jobstore.StateQueued:
			c.queue = append(c.queue, r.ID)
		case r.State == jobstore.StateRunning:
			c.requeueLocked(rec, fmt.Sprintf("attempt %d: interrupted by restart", r.Attempt), true, now)
		}
	}
	c.runCtx, c.cancelRun = context.WithCancel(context.Background())
	c.runners.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go c.work()
	}
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

// notifyLocked leaves a wake token for an idle runner; it never blocks.
func (c *coordinator) notifyLocked() {
	select {
	case c.wake <- struct{}{}:
	default: // a token is already waiting
	}
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

// requeueLocked sends a running record back to the queue, or to the
// dead-letter state when charged is set and its attempts are used up.
// cause lands on the failure chain. A boot requeue is charged; a
// shutdown-deadline release is not, since shutting the server down is
// not the job's fault.
func (c *coordinator) requeueLocked(rec *job, cause string, charged bool, now time.Time) {
	rec.Failures = append(rec.Failures, cause)
	rec.Updated = now
	rec.cancel = nil
	switch {
	case rec.CancelRequested:
		// The client's cancel wins over any rerun: resolve it now.
		rec.Canceled = true
		fin := now
		rec.Finished = &fin
		c.setStateLocked(rec, jobstore.StateCanceled)
	case charged && rec.Attempt >= c.cfg.MaxAttempts:
		rec.Error = cause
		fin := now
		rec.Finished = &fin
		c.setStateLocked(rec, jobstore.StateDead)
		c.stats.DeadLettered++
	default:
		c.setStateLocked(rec, jobstore.StateQueued)
		c.queue = append(c.queue, rec.ID)
		c.stats.Retries++
	}
	c.putLocked(rec)
}

// ---- submit / query / cancel (the HTTP-facing half) ----

// submit validates nothing (the HTTP layer already did), persists the
// job durably, and queues it. The 202 the client sees is only sent
// after the store accepted the record. A non-nil answer is the job's
// outcome, found in the result cache at submit: the job is recorded
// done with it in that one store write, started and finished as it is
// submitted, and never queued — so a full queue does not refuse it.
func (c *coordinator) submit(req Request, answer *report) (JobView, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return JobView{}, errStore{err}
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return JobView{}, errDraining
	}
	if answer == nil && c.counts[jobstore.StateQueued] >= c.cfg.QueueDepth {
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
		rec.State = apply(rec, *answer, 0, now)
	}
	if err := c.store.Put(rec.Record); err != nil {
		c.nextID--
		return JobView{}, errStore{err}
	}
	c.jobs[rec.ID] = rec
	c.order = append(c.order, rec.ID)
	c.counts[rec.State]++
	// Evict before an answered job joins the terminal FIFO, so its own
	// submit never evicts it.
	c.evictLocked()
	if answer != nil {
		c.terminalQ = append(c.terminalQ, rec.ID)
		c.stats.Terminal++
	} else {
		c.queue = append(c.queue, rec.ID)
		c.notifyLocked()
	}
	return c.viewLocked(rec), nil
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
// immediately, running records the cancel intent durably and cancels
// the attempt's context, terminal frees the record.
func (c *coordinator) cancel(id string) (view JobView, deleted, found bool) {
	now := time.Now()
	var stop context.CancelFunc
	defer func() {
		if stop != nil {
			stop()
		}
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.jobs[id]
	if !ok {
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
		stop = rec.cancel
	default: // terminal: free the record and its retained result
		view = c.viewLocked(rec)
		if err := c.store.Delete(id); err != nil {
			c.warn("coordinator: delete %s: %v", id, err)
		}
		c.counts[rec.State]--
		delete(c.jobs, id)
		return view, true, true
	}
	return c.viewLocked(rec), false, true
}

// health snapshots the per-state job counts (zero counts omitted) and
// the queue depth.
func (c *coordinator) health() (counts map[jobstore.State]int, queued int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	counts = map[jobstore.State]int{}
	for st, n := range c.counts {
		if n != 0 {
			counts[st] = n
		}
	}
	return counts, c.counts[jobstore.StateQueued]
}

// snapshotStats returns the transition counters (test hook).
func (c *coordinator) snapshotStats() fleetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ---- the runners' half ----

// attempt is one claimed execution of a job.
type attempt struct {
	id      string
	n       int // the record's Attempt while this execution runs
	request json.RawMessage
	ctx     context.Context
	cancel  context.CancelFunc
}

// claim blocks until it can start the next queued job, and reports
// false once the coordinator drains.
func (c *coordinator) claim() (attempt, bool) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return attempt{}, false
		}
		for len(c.queue) > 0 {
			id := c.queue[0]
			c.queue = c.queue[1:]
			rec, ok := c.jobs[id]
			if !ok || rec.State != jobstore.StateQueued {
				continue // canceled, maybe freed, while it waited
			}
			a := c.startLocked(rec)
			if len(c.queue) > 0 {
				c.notifyLocked() // pass the wake on to the next idle runner
			}
			c.mu.Unlock()
			return a, true
		}
		c.mu.Unlock()
		select {
		case <-c.wake:
		case <-c.stop:
		}
	}
}

// startLocked moves a queued record to running as its next attempt and
// persists it: the running line is how a later boot knows the attempt
// was interrupted.
func (c *coordinator) startLocked(rec *job) attempt {
	now := time.Now()
	rec.Attempt++
	rec.Updated = now
	if rec.Started == nil {
		ts := now
		rec.Started = &ts
	}
	c.setStateLocked(rec, jobstore.StateRunning)
	ctx, cancel := context.WithCancel(c.runCtx)
	rec.cancel = cancel
	c.putLocked(rec)
	return attempt{id: rec.ID, n: rec.Attempt, request: rec.Request, ctx: ctx, cancel: cancel}
}

// progress keeps the newest snapshot of a running attempt.
func (c *coordinator) progress(a attempt, v ProgressView) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec, ok := c.jobs[a.id]; ok && rec.State == jobstore.StateRunning && rec.Attempt == a.n {
		rec.progress = &v
	}
}

// settle records an attempt's outcome if the record is still running
// that attempt. An outcome from an attempt a shutdown deadline released
// is dropped, never written.
func (c *coordinator) settle(a attempt, out report) {
	a.cancel()
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.jobs[a.id]
	if !ok || rec.State != jobstore.StateRunning || rec.Attempt != a.n {
		return
	}
	rec.cancel = nil
	rec.Updated = now
	c.setStateLocked(rec, apply(rec, out, a.n, now))
	c.putLocked(rec)
}

// apply copies an outcome onto rec, finished at now, and returns the
// terminal state it settles in: what a finished job keeps of its
// outcome, whether a runner produced it on attempt n or the cache
// answered the submit (n = 0). A failure joins the failure chain with its stack,
// if it was a panic.
func apply(rec *job, out report, n int, now time.Time) jobstore.State {
	fin := now
	rec.Finished = &fin
	rec.Summary = out.Summary
	rec.Error = out.Error
	if out.Status == StatusFailed {
		cause := fmt.Sprintf("attempt %d: %s", n, out.Error)
		if out.Stack != "" {
			cause += "\n" + out.Stack
		}
		rec.Failures = append(rec.Failures, cause)
		return jobstore.StateFailed
	}
	rec.OK = out.OK
	rec.Cached = out.Cached
	rec.Canceled = out.Canceled || out.Status == StatusCanceled
	rec.Result = out.Result
	rec.CorpusFiles = out.CorpusFiles
	if out.Status == StatusCanceled {
		return jobstore.StateCanceled
	}
	return jobstore.StateDone
}

// ---- lifecycle ----

// drain rejects further submits and claims; idempotent.
func (c *coordinator) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.stop)
	}
}

// shutdown drains, cancels every running attempt and waits for the
// runners to settle them. If ctx expires first, every job still running
// is released back to queued — an outcome it reports later is dropped,
// and a restarted server reruns it rather than losing it — and shutdown
// reports false.
func (c *coordinator) shutdown(ctx context.Context) bool {
	c.drain()
	c.cancelRun()
	settled := make(chan struct{})
	go func() {
		c.runners.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		return true
	case <-ctx.Done():
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		if rec, ok := c.jobs[id]; ok && rec.State == jobstore.StateRunning {
			c.requeueLocked(rec, fmt.Sprintf("attempt %d: released: shutdown deadline", rec.Attempt), false, now)
		}
	}
	return false
}
