package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
)

// Outcome is one execution attempt's result, produced by an Executor.
type Outcome struct {
	Status      Status // StatusDone, StatusFailed or StatusCanceled
	Summary     string
	OK          *bool
	Err         error
	Cached      bool
	Canceled    bool
	Result      any
	CorpusFiles []string
}

// Executor runs one job attempt. It must honor ctx cancellation (a
// DELETE or a shutdown) and may stream progress snapshots through
// onProgress (never nil).
type Executor func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome

// report is an outcome as the coordinator records it: the runner's and
// a submit the result cache answered both go through outcomeReport.
type report struct {
	Status      Status // done | failed | canceled
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
func (c *coordinator) execute(a attempt) (rep report) {
	defer func() {
		if p := recover(); p != nil {
			rep = report{Status: StatusFailed, Error: fmt.Sprintf("executor panic: %v", p), Stack: string(debug.Stack())}
		}
	}()
	var req Request
	if err := json.Unmarshal(a.request, &req); err != nil {
		return report{Status: StatusFailed, Error: fmt.Sprintf("job %s: stored request unreadable: %v", a.id, err)}
	}
	return outcomeReport(c.exec(a.ctx, req, func(v ProgressView) { c.progress(a, v) }))
}

// outcomeReport renders an outcome as the report the coordinator
// records.
func outcomeReport(out Outcome) report {
	rep := report{
		Status:      out.Status,
		Summary:     out.Summary,
		OK:          out.OK,
		Cached:      out.Cached,
		Canceled:    out.Canceled,
		CorpusFiles: out.CorpusFiles,
	}
	if out.Err != nil {
		rep.Error = out.Err.Error()
	}
	if out.Result != nil {
		raw, err := json.Marshal(out.Result)
		if err != nil {
			rep.Status = StatusFailed
			rep.Error = fmt.Sprintf("encode result: %v", err)
		} else {
			rep.Result = raw
		}
	}
	return rep
}
