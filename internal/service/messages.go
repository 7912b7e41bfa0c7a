package service

import (
	"context"
	"encoding/json"
)

// noCtx is the background context for fleet-internal publishes: they
// are decoupled from any caller's request lifetime by design.
func noCtx() context.Context { return context.Background() }

// Bus channels. The coordinator publishes dispatches; workers claim
// them competitively through one queue group and report back on the
// event channels. Per-worker control channels carry aborts. All
// payloads are JSON via the typed bus layer.
//
// The protocol is designed for the WEAKEST transport the bus package
// admits: any message may be lost, duplicated or reordered. Safety
// comes from the coordinator's monotonic job state machine — records
// only move forward, every transition is guarded by (attempt, worker)
// matching, and the first terminal transition wins — while liveness
// comes from the lease sweeper redriving anything that stalls.
const (
	chanDispatch  = "jobs.dispatch"
	queueWorkers  = "workers"
	chanStarted   = "jobs.started"
	chanHeartbeat = "jobs.heartbeat"
	chanProgress  = "jobs.progress"
	chanDone      = "jobs.done"
	chanHello     = "jobs.workers"
	chanCtlPrefix = "jobs.ctl." // + worker ID
)

// ctlChannel names a worker's control channel.
func ctlChannel(worker string) string { return chanCtlPrefix + worker }

// dispatchMsg offers one execution attempt of a job to the worker
// queue group. Attempt is the number this execution will carry —
// always the record's started-attempt count plus one at publish time —
// so the coordinator can tell a live claim from a stale or duplicated
// one. Request is the stored submit body as persisted: the worker that
// claims the attempt decodes it.
type dispatchMsg struct {
	ID      string          `json:"id"`
	Attempt int             `json:"attempt"`
	Request json.RawMessage `json:"request"`
}

// startedMsg announces a worker claimed an attempt; the coordinator
// answers by granting (recording the lease) or publishing an abort.
type startedMsg struct {
	ID      string `json:"id"`
	Attempt int    `json:"attempt"`
	Worker  string `json:"worker"`
}

// heartbeatMsg extends a running attempt's lease.
type heartbeatMsg struct {
	ID      string `json:"id"`
	Attempt int    `json:"attempt"`
	Worker  string `json:"worker"`
}

// helloMsg is worker liveness, published periodically even when idle;
// healthz counts workers seen recently.
type helloMsg struct {
	Worker string `json:"worker"`
}

// progressMsg carries the latest progress snapshot of a running
// attempt; the coordinator keeps only the newest per job.
type progressMsg struct {
	ID      string       `json:"id"`
	Attempt int          `json:"attempt"`
	View    ProgressView `json:"view"`
}

// doneMsg reports an attempt's outcome. Transient marks a failure as
// retry-eligible (crash-shaped); deterministic failures are permanent
// and terminal on first occurrence.
type doneMsg struct {
	ID          string          `json:"id"`
	Attempt     int             `json:"attempt"`
	Worker      string          `json:"worker"`
	Status      Status          `json:"status"` // done | failed | canceled
	Summary     string          `json:"summary,omitempty"`
	OK          *bool           `json:"ok,omitempty"`
	Error       string          `json:"error,omitempty"`
	Transient   bool            `json:"transient,omitempty"`
	Cached      bool            `json:"cached,omitempty"`
	Canceled    bool            `json:"canceled,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	CorpusFiles []string        `json:"corpus_files,omitempty"`
	// Progress is the attempt's final progress snapshot, carried with
	// the outcome so pollers see coherent progress the moment the job is
	// terminal, independent of the separate (racy, droppable) progress
	// channel.
	Progress *ProgressView `json:"progress,omitempty"`
}

// controlMsg is a coordinator-to-worker command on the worker's
// control channel.
type controlMsg struct {
	ID     string `json:"id"`
	Action string `json:"action"` // "abort"
}
