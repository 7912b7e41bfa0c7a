package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
)

// Outcome is one execution attempt's result as the coordinator records
// it: an Executor's, a submit the result cache answered, or a runner's
// own failure to call the executor.
type Outcome struct {
	Status      Status // StatusDone, StatusFailed or StatusCanceled
	Summary     string
	OK          *bool
	Error       string
	Cached      bool
	Canceled    bool
	Result      json.RawMessage
	CorpusFiles []string
	// Stack is the executor's stack when it panicked.
	Stack string
}

// Executor runs one job attempt. It must honor ctx cancellation (a
// DELETE or a shutdown) and may stream progress snapshots through
// onProgress (never nil).
type Executor func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome

// work is one runner: it claims the next queued job, runs it and
// settles it, until the coordinator drains.
func (c *coordinator) work() {
	defer c.runners.Done()
	for {
		a, ok := c.claim()
		if !ok {
			return
		}
		c.settle(a, c.execute(a))
	}
}

// execute decodes the stored request and calls the executor. A stored
// request that no longer decodes is a failure naming the job, and so is
// a panic, with its value in the error and its stack on the failure
// chain: the job fails on this attempt and is not run again.
func (c *coordinator) execute(a attempt) (out Outcome) {
	defer func() {
		if p := recover(); p != nil {
			out = Outcome{Status: StatusFailed, Error: fmt.Sprintf("executor panic: %v", p), Stack: string(debug.Stack())}
		}
	}()
	var req Request
	if err := json.Unmarshal(a.request, &req); err != nil {
		return Outcome{Status: StatusFailed, Error: fmt.Sprintf("job %s: stored request unreadable: %v", a.id, err)}
	}
	return c.exec(a.ctx, req, func(v ProgressView) { c.progress(a, v) })
}
