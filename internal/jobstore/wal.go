package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"protogen/internal/linelog"
)

// walEntry is one JSONL log line: a full-record upsert or a tombstone.
type walEntry struct {
	Op  string  `json:"op"` // "put" | "del"
	ID  string  `json:"id,omitempty"`
	Rec *Record `json:"rec,omitempty"`
}

// valid reports whether the entry folds into a replay: a put names its
// record; a tombstone always does (for an unknown ID it deletes nothing).
func (e walEntry) valid() bool {
	switch e.Op {
	case "put":
		return e.Rec != nil && e.Rec.ID != ""
	case "del":
		return true
	}
	return false
}

// WALOptions tunes OpenWAL.
type WALOptions struct {
	// NoSync skips the fsync after each append. Only for tests and
	// harnesses that simulate crashes above the filesystem — with it
	// set, a submit acknowledged over HTTP can die with the page cache.
	NoSync bool
}

// compactFactor triggers the boot-time rewrite: a log holding more than
// compactFactor times as many lines as live records is rewritten to its
// live set.
const compactFactor = 4

// WAL is the durable Store: an append-only line log (internal/linelog)
// of full-record snapshots, and nothing else — the handle keeps no
// record in memory. Every Put appends one line and (by default) syncs
// before returning, so an acknowledged submit survives the process.
// OpenWAL replays the log once, last-write-wins, and hands that replay
// to the first Load; a later Load re-reads the file. An unterminated
// final line — the crash signature — is dropped and cut off the file;
// any other line that is not an entry is damage, skipped and reported
// by Damage. Write failures are sticky: the WAL reports unhealthy until
// reopened, and the service above degrades rather than accepting work
// it cannot persist.
type WAL struct {
	path string
	log  *linelog.Log
	scan linelog.Scan // the boot replay's, fixed once OpenWAL returns

	// boot is OpenWAL's replay, held only until the first Load takes it
	// or the first append makes it stale.
	boot atomic.Pointer[[]Record]
}

// WALName is the log's filename inside the store directory.
const WALName = "jobs.wal"

// OpenWAL opens (creating if needed) the job log in dir, replays it,
// and compacts it when it has grown far past its live set.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	path := filepath.Join(dir, WALName)
	recs, scan, err := replay(path)
	if err != nil {
		return nil, err
	}
	if scan.Lines > compactFactor*len(recs) {
		err := linelog.Rewrite(path, len(recs), func(i int) ([]byte, error) {
			return json.Marshal(walEntry{Op: "put", Rec: &recs[i]})
		})
		if err != nil {
			return nil, fmt.Errorf("jobstore: compact: %w", err)
		}
		scan.Torn = false // the rewrite left no tail to cut
	}
	log := linelog.Open(path, scan, !opts.NoSync)
	if err := log.Err(); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	w := &WAL{path: path, log: log, scan: scan}
	w.boot.Store(&recs)
	return w, nil
}

// replay folds the log at path last-write-wins into its live records,
// in first-submission order.
func replay(path string) ([]Record, linelog.Scan, error) {
	var recs []Record
	slot := map[string]int{} // live ID → index in recs
	scan, err := linelog.Read(path, func(line []byte) bool {
		var e walEntry
		switch {
		case json.Unmarshal(line, &e) != nil || !e.valid():
			return false
		case e.Op == "del":
			if i, live := slot[e.ID]; live {
				recs[i] = Record{} // squeezed out below
				delete(slot, e.ID)
			}
		default: // put
			if i, live := slot[e.Rec.ID]; live {
				recs[i] = *e.Rec
			} else {
				slot[e.Rec.ID] = len(recs)
				recs = append(recs, *e.Rec)
			}
		}
		return true
	})
	if err != nil {
		return nil, scan, fmt.Errorf("jobstore: replay: %w", err)
	}
	return slices.DeleteFunc(recs, func(rec Record) bool { return rec.ID == "" }), scan, nil
}

// append writes one entry; durable on return unless NoSync.
func (w *WAL) append(e walEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("jobstore: encode: %w", err)
	}
	w.boot.Store(nil)
	return w.log.Append(line)
}

// Put appends a full-record snapshot; on return (healthy, default
// sync) the record is on disk and the WAL holds no part of it.
func (w *WAL) Put(rec Record) error {
	if err := validate(rec); err != nil {
		return err
	}
	return w.append(walEntry{Op: "put", Rec: &rec})
}

// Delete appends a tombstone.
func (w *WAL) Delete(id string) error {
	return w.append(walEntry{Op: "del", ID: id})
}

// Load returns the live records in first-submission order; they are the
// caller's. The first call on an unwritten handle is OpenWAL's replay,
// so boot parses the log once; any other call re-reads the file.
func (w *WAL) Load() ([]Record, error) {
	if recs := w.boot.Swap(nil); recs != nil {
		return *recs, nil
	}
	recs, _, err := replay(w.path)
	return recs, err
}

// Damage reports what OpenWAL's replay could not read: the number of
// complete lines that were not an entry (each one a lost record
// version) and the byte offset of the first, as the file stood before
// any boot compaction. A torn final line is not damage.
func (w *WAL) Damage() (lines int, firstOffset int64) {
	return w.scan.Damaged, w.scan.DamageOff
}

// Err returns the sticky write failure, nil while healthy.
func (w *WAL) Err() error { return w.log.Err() }

// Close closes the log file.
func (w *WAL) Close() error { return w.log.Close() }
