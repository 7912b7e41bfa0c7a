// Package jobstore is the durable half of the verification service: a
// job Record model (lifecycle state, attempt count, failure chain,
// terminal result) behind a small Store interface with two
// implementations — an append-only JSONL write-ahead log whose Put is
// durable before it returns (the coordinator acknowledges a submit
// over HTTP only after the WAL has synced, and reads the log once on
// boot to recover queued jobs and the running ones a crash
// interrupted; the open log keeps no record in memory), and an
// in-memory map for tests and ephemeral deployments. Writes are sticky-failure aware: once the log cannot be
// appended the store reports unhealthy and the service degrades to 503
// instead of silently accepting jobs it would lose.
package jobstore

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State string

// Lifecycle states. Terminal states are never left; dead is the
// dead-letter parking state for jobs restarts interrupted too often.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	StateDead     State = "dead"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateDead:
		return true
	}
	return false
}

// Record is one job's full persisted state. Every transition persists
// the whole record (snapshot, not delta), so replay is last-write-wins
// per ID and needs no reducer.
type Record struct {
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	Request json.RawMessage `json:"request,omitempty"`

	State   State `json:"state"`
	Attempt int   `json:"attempt"` // execution attempts started (1-based once running)

	// CancelRequested records a client's cancel of a running job, so the
	// intent survives a restart: a requeue that would otherwise rerun
	// the job resolves to canceled instead.
	CancelRequested bool `json:"cancel_requested,omitempty"`

	Submitted time.Time  `json:"submitted"`
	Updated   time.Time  `json:"updated"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`

	// Failures is the failure chain: one entry per failed, interrupted
	// or released attempt, oldest first — preserved into the dead-letter
	// state so an operator sees the whole story.
	Failures []string `json:"failures,omitempty"`

	Summary     string          `json:"summary,omitempty"`
	OK          *bool           `json:"ok,omitempty"`
	Error       string          `json:"error,omitempty"`
	Cached      bool            `json:"cached,omitempty"`
	Canceled    bool            `json:"canceled,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	CorpusFiles []string        `json:"corpus_files,omitempty"`
}

// Clone deep-copies the record (slices and raw JSON included), so
// callers can mutate their copy without aliasing the store's.
func (r Record) Clone() Record {
	c := r
	c.Request = append(json.RawMessage(nil), r.Request...)
	c.Result = append(json.RawMessage(nil), r.Result...)
	c.Failures = append([]string(nil), r.Failures...)
	c.CorpusFiles = append([]string(nil), r.CorpusFiles...)
	if r.OK != nil {
		ok := *r.OK
		c.OK = &ok
	}
	if r.Started != nil {
		ts := *r.Started
		c.Started = &ts
	}
	if r.Finished != nil {
		ts := *r.Finished
		c.Finished = &ts
	}
	return c
}

// Store persists job records. Implementations must make Put durable
// before returning (to whatever degree the backing medium supports)
// and must keep accepting reads after a write failure — degraded, not
// dead.
type Store interface {
	// Put persists the record as the latest version of its ID. It must
	// not retain rec's slices or pointers past its return: the caller
	// passes its own working record, uncopied, and goes on mutating it.
	Put(rec Record) error
	// Delete tombstones the ID: Load no longer returns it.
	Delete(id string) error
	// Load returns the latest live version of every record, in first-
	// submission order — the boot-time replay. The records are the
	// caller's: nothing in them aliases the store.
	Load() ([]Record, error)
	// Err returns the sticky write-failure, nil while healthy. A store
	// that failed a Put stays unhealthy until reopened.
	Err() error
	// Close releases the backing resources.
	Close() error
}

// Mem is the in-memory Store: the test implementation and the backing
// for ephemeral (non-durable) deployments.
type Mem struct {
	mu    sync.Mutex
	recs  map[string]Record //protogen:guardedby mu
	order []string          //protogen:guardedby mu
	err   error             //protogen:guardedby mu
}

// NewMem builds an empty in-memory store.
func NewMem() *Mem {
	return &Mem{recs: map[string]Record{}}
}

// Put stores a deep copy of the record: the map is the medium, so this
// is the one Store that must copy what it is handed.
func (m *Mem) Put(rec Record) error {
	if err := validate(rec); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	if _, ok := m.recs[rec.ID]; !ok {
		m.order = append(m.order, rec.ID)
	}
	m.recs[rec.ID] = rec.Clone()
	return nil
}

// Delete removes the record.
func (m *Mem) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	if _, ok := m.recs[id]; ok {
		delete(m.recs, id)
		i := slices.Index(m.order, id) // eviction deletes the oldest: found at the front
		m.order = slices.Delete(m.order, i, i+1)
	}
	return nil
}

// Load returns copies of the live records in submission order.
func (m *Mem) Load() ([]Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.recs))
	for _, id := range m.order {
		out = append(out, m.recs[id].Clone())
	}
	return out, nil
}

// Err returns the injected failure, if any.
func (m *Mem) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Fail injects a sticky write failure (nil heals it) — the test hook
// behind the service's degraded-mode coverage.
func (m *Mem) Fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.err = err
}

// Close is a no-op for the in-memory store.
func (m *Mem) Close() error { return nil }

// validate rejects records the log could never replay.
func validate(rec Record) error {
	if rec.ID == "" {
		return fmt.Errorf("jobstore: record without ID")
	}
	return nil
}
