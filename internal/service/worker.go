package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"protogen/internal/bus"
)

// Outcome is one execution attempt's result, produced by an Executor.
type Outcome struct {
	Status  Status // StatusDone, StatusFailed or StatusCanceled
	Summary string
	OK      *bool
	Err     error
	// Transient marks a failure as retry-eligible (crash-shaped:
	// injected faults, panics). Deterministic executor failures — a bad
	// spec, an engine error that would recur — leave it false and the
	// job fails terminally on the first attempt.
	Transient   bool
	Cached      bool
	Canceled    bool
	Result      any
	CorpusFiles []string
}

// Executor runs one job attempt. It must honor ctx cancellation (an
// abort or worker stop) and may stream progress snapshots through
// onProgress (never nil).
type Executor func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome

// Worker is one fleet member: it claims dispatches from the shared
// queue group, executes them synchronously on its delivery goroutine
// (so a busy worker naturally stops claiming — the in-memory bus
// offers each job to the member with the shortest backlog), heartbeats
// the lease while running, and reports the outcome. It holds no job
// state of its own: a worker that dies mid-job simply stops
// heartbeating and the coordinator's sweeper reassigns the attempt.
type Worker struct {
	id      string
	b       bus.Bus
	exec    Executor
	hbEvery time.Duration
	warn    func(format string, args ...any)

	// runCtx cancels running executors (graceful stop or kill); pubCtx
	// outlives it so outcomes of draining jobs still publish, and is
	// cancelled only by Kill or final teardown.
	runCtx    context.Context
	cancelRun context.CancelFunc
	pubCtx    context.Context
	cancelPub context.CancelFunc

	subs  []bus.Subscription
	wg    sync.WaitGroup // hello + heartbeat goroutines
	jobWG sync.WaitGroup // in-flight dispatch handlers

	mu       sync.Mutex
	jobs     map[string]context.CancelFunc //protogen:guardedby mu — abort hooks for running jobs
	stopping bool                          //protogen:guardedby mu — reject new claims
	killed   bool                          //protogen:guardedby mu — crash simulation: suppress outcome reports
}

// newWorker subscribes the worker to the dispatch queue group and its
// control channel and starts its liveness beacon.
func newWorker(id string, b bus.Bus, exec Executor, hbEvery time.Duration, warn func(string, ...any)) (*Worker, error) {
	if warn == nil {
		warn = func(string, ...any) {}
	}
	w := &Worker{
		id:      id,
		b:       b,
		exec:    exec,
		hbEvery: hbEvery,
		warn:    warn,
		jobs:    map[string]context.CancelFunc{},
	}
	w.runCtx, w.cancelRun = context.WithCancel(context.Background())
	w.pubCtx, w.cancelPub = context.WithCancel(context.Background())
	onErr := func(err error) { warn("worker %s: %v", id, err) }
	sub, err := bus.QueueSubscribe(w.pubCtx, b, chanDispatch, queueWorkers, w.onDispatch, onErr)
	if err != nil {
		return nil, err
	}
	w.subs = append(w.subs, sub)
	ctl, err := bus.Subscribe(w.pubCtx, b, ctlChannel(id), w.onControl, onErr)
	if err != nil {
		sub.Unsubscribe()
		return nil, err
	}
	w.subs = append(w.subs, ctl)
	w.wg.Add(1)
	go w.helloLoop()
	return w, nil
}

// helloLoop publishes liveness beacons until the worker is torn down.
func (w *Worker) helloLoop() {
	defer w.wg.Done()
	_ = bus.Publish(w.pubCtx, w.b, chanHello, helloMsg{Worker: w.id})
	tick := time.NewTicker(w.hbEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_ = bus.Publish(w.pubCtx, w.b, chanHello, helloMsg{Worker: w.id})
		case <-w.pubCtx.Done():
			return
		}
	}
}

// onControl handles coordinator commands; abort cancels the named
// job's context if it is running here.
func (w *Worker) onControl(m controlMsg) {
	if m.Action != "abort" {
		return
	}
	w.mu.Lock()
	cancel := w.jobs[m.ID]
	w.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// onDispatch executes one claimed attempt end to end on the delivery
// goroutine: announce, heartbeat, run, report.
func (w *Worker) onDispatch(m dispatchMsg) {
	w.mu.Lock()
	if w.stopping {
		// Drop the claim: the message is lost from this member's point of
		// view, which the protocol already survives (redispatch).
		w.mu.Unlock()
		return
	}
	w.jobWG.Add(1)
	jctx, cancel := context.WithCancel(w.runCtx)
	w.jobs[m.ID] = cancel
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.jobs, m.ID)
		w.mu.Unlock()
		cancel()
		w.jobWG.Done()
	}()

	_ = bus.Publish(w.pubCtx, w.b, chanStarted, startedMsg{ID: m.ID, Attempt: m.Attempt, Worker: w.id})

	hbStop := make(chan struct{})
	w.wg.Add(1)
	go w.heartbeatLoop(m.ID, m.Attempt, hbStop)

	out, lastProgress := w.runExec(jctx, m)
	close(hbStop)

	w.mu.Lock()
	killed := w.killed
	w.mu.Unlock()
	if killed {
		return // crashed workers report nothing; the lease sweeper recovers the job
	}
	w.report(m, out, lastProgress)
}

// heartbeatLoop extends the lease of one running attempt until the
// executor returns or the worker is torn down.
func (w *Worker) heartbeatLoop(id string, attempt int, stop <-chan struct{}) {
	defer w.wg.Done()
	tick := time.NewTicker(w.hbEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_ = bus.Publish(w.pubCtx, w.b, chanHeartbeat, heartbeatMsg{ID: id, Attempt: attempt, Worker: w.id})
		case <-stop:
			return
		case <-w.pubCtx.Done():
			return
		}
	}
}

// runExec decodes the stored request and invokes the executor with
// panic isolation: a panicking job becomes a transient failure of this
// attempt, not a dead worker, and a stored request that no longer
// decodes is a permanent failure naming the job. It also returns the
// last progress snapshot the executor emitted, so the outcome report
// carries coherent final progress.
func (w *Worker) runExec(ctx context.Context, m dispatchMsg) (Outcome, *ProgressView) {
	var (
		progMu sync.Mutex
		last   *ProgressView
	)
	onProgress := func(v ProgressView) {
		progMu.Lock()
		last = &v
		progMu.Unlock()
		w.mu.Lock()
		killed := w.killed
		w.mu.Unlock()
		if killed {
			return
		}
		_ = bus.Publish(w.pubCtx, w.b, chanProgress, progressMsg{ID: m.ID, Attempt: m.Attempt, View: v})
	}
	out := func() (out Outcome) {
		defer func() {
			if r := recover(); r != nil {
				out = Outcome{
					Status:    StatusFailed,
					Err:       fmt.Errorf("worker panic: %v", r),
					Transient: true,
				}
			}
		}()
		var req Request
		if err := json.Unmarshal(m.Request, &req); err != nil {
			return Outcome{Status: StatusFailed, Err: fmt.Errorf("job %s: stored request unreadable: %v", m.ID, err)}
		}
		return w.exec(ctx, req, onProgress)
	}()
	progMu.Lock()
	lp := last
	progMu.Unlock()
	return out, lp
}

// report publishes the attempt's outcome.
func (w *Worker) report(m dispatchMsg, out Outcome, lastProgress *ProgressView) {
	msg := outcomeReport(out)
	msg.ID, msg.Attempt, msg.Worker, msg.Progress = m.ID, m.Attempt, w.id, lastProgress
	if err := bus.Publish(w.pubCtx, w.b, chanDone, msg); err != nil {
		w.warn("worker %s: report %s: %v", w.id, m.ID, err)
	}
}

// outcomeReport renders an outcome as the report the coordinator
// records, short of who sent it: the worker's report and a submit the
// result cache answered both go through it.
func outcomeReport(out Outcome) doneMsg {
	msg := doneMsg{
		Status:      out.Status,
		Summary:     out.Summary,
		OK:          out.OK,
		Transient:   out.Transient,
		Cached:      out.Cached,
		Canceled:    out.Canceled,
		CorpusFiles: out.CorpusFiles,
	}
	if out.Err != nil {
		msg.Error = out.Err.Error()
	}
	if out.Result != nil {
		raw, err := json.Marshal(out.Result)
		if err != nil {
			msg.Status = StatusFailed
			msg.Error = fmt.Sprintf("encode result: %v", err)
			msg.Transient = false
		} else {
			msg.Result = raw
		}
	}
	return msg
}

// Stop drains the worker gracefully: no new claims, running jobs are
// cancelled (their executors return canceled outcomes, which still
// publish), and Stop waits for in-flight handlers up to ctx's
// deadline. On deadline it returns ctx.Err() with the worker still
// partially alive — the caller escalates to Kill.
func (w *Worker) Stop(ctx context.Context) error {
	w.mu.Lock()
	w.stopping = true
	w.mu.Unlock()
	w.cancelRun()
	drained := make(chan struct{})
	go func() {
		w.jobWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	w.teardown()
	return nil
}

// Kill simulates a crash: running executors are cancelled, but no
// outcome, heartbeat or farewell is ever published — from the
// coordinator's view the worker vanishes mid-job. Used by shutdown
// escalation and the chaos harness.
func (w *Worker) Kill() {
	w.mu.Lock()
	w.stopping = true
	w.killed = true
	w.mu.Unlock()
	w.cancelRun()
	w.teardown()
}

// teardown unsubscribes and stops the beacon/heartbeat goroutines. It
// must not wait for jobWG: a wedged executor (Kill path) drains on its
// own time and its report is suppressed.
func (w *Worker) teardown() {
	for _, s := range w.subs {
		s.Unsubscribe()
	}
	w.cancelPub()
	w.cancelRun()
	w.wg.Wait()
}
