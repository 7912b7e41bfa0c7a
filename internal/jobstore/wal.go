package jobstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
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

// WAL is the durable Store: an append-only JSONL log of full-record
// snapshots, and nothing else — the handle keeps no record in memory.
// Every Put appends one line and (by default) syncs before returning,
// so an acknowledged submit survives the process. OpenWAL replays the
// log once, last-write-wins, and hands that replay to the first Load;
// a later Load re-reads the file. An unterminated final line — the
// crash signature — is dropped and cut off the file; any other line
// that is not an entry is damage, skipped and reported by Damage.
// Write failures are sticky: the WAL reports unhealthy until reopened,
// and the service above degrades rather than accepting work it cannot
// persist.
type WAL struct {
	path   string
	noSync bool

	// The boot replay's damage report, fixed once OpenWAL returns.
	damaged   int
	damageOff int64

	mu sync.Mutex
	f  *os.File //protogen:guardedby mu
	// boot is OpenWAL's replay, held only until the first Load takes it
	// or the first append makes it stale.
	boot []Record //protogen:guardedby mu
	err  error    //protogen:guardedby mu
}

// WALName is the log's filename inside the store directory.
const WALName = "jobs.wal"

// OpenWAL opens (creating if needed) the job log in dir, replays it,
// and compacts it when it has grown far past its live set.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	w := &WAL{path: filepath.Join(dir, WALName), noSync: opts.NoSync}
	rp, err := replay(w.path)
	if err != nil {
		return nil, err
	}
	switch {
	case rp.lines > compactFactor*len(rp.recs):
		if err := compact(w.path, rp.recs); err != nil {
			return nil, err
		}
	case rp.torn:
		// Cut the torn tail off, or the next append would be glued onto it
		// and lost with it at the next boot.
		if err := os.Truncate(w.path, rp.end); err != nil {
			return nil, fmt.Errorf("jobstore: %w", err)
		}
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	w.f = f
	w.boot = rp.recs
	w.damaged, w.damageOff = rp.damaged, rp.damageOff
	return w, nil
}

// replayed is one pass over the log.
type replayed struct {
	recs  []Record // live records, first-submission order
	lines int      // complete lines, damaged ones included
	end   int64    // offset just past the last complete line
	torn  bool     // bytes follow end: a final line with no newline

	damaged   int   // complete lines that are not an entry
	damageOff int64 // offset of the first of them
}

// replay reads the log at path, folding its entries last-write-wins. A
// line may be any length: what Put accepted, replay reads back.
func replay(path string) (replayed, error) {
	var rp replayed
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return rp, nil
	}
	if err != nil {
		return rp, fmt.Errorf("jobstore: %w", err)
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 64*1024)
	var long []byte          // a line that outgrew br's buffer
	slot := map[string]int{} // live ID → index in rp.recs
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long, line...)
			continue
		}
		if len(long) > 0 {
			long = append(long, line...)
			line, long = long, long[:0]
		}
		if err == io.EOF {
			rp.torn = len(line) > 0
			break
		}
		if err != nil {
			return rp, fmt.Errorf("jobstore: replay %s: %w", path, err)
		}
		var e walEntry
		switch {
		case json.Unmarshal(line, &e) != nil || !e.valid():
			if rp.damaged == 0 {
				rp.damageOff = rp.end
			}
			rp.damaged++
		case e.Op == "del":
			if i, live := slot[e.ID]; live {
				rp.recs[i] = Record{} // squeezed out below
				delete(slot, e.ID)
			}
		default: // put
			if i, live := slot[e.Rec.ID]; live {
				rp.recs[i] = *e.Rec
			} else {
				slot[e.Rec.ID] = len(rp.recs)
				rp.recs = append(rp.recs, *e.Rec)
			}
		}
		rp.lines++
		rp.end += int64(len(line))
	}
	rp.recs = slices.DeleteFunc(rp.recs, func(rec Record) bool { return rec.ID == "" })
	return rp, nil
}

// compact rewrites the log at path to exactly recs, atomically (write
// temp, sync, rename).
func compact(path string, recs []Record) error {
	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	bw := bufio.NewWriter(f)
	for i := range recs {
		line, err := json.Marshal(walEntry{Op: "put", Rec: &recs[i]})
		if err != nil {
			f.Close()
			return fmt.Errorf("jobstore: compact: %w", err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	return nil
}

// append writes one entry and, unless NoSync, fsyncs. A failure is
// sticky.
func (w *WAL) append(e walEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("jobstore: encode: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		w.err = fmt.Errorf("jobstore: log closed")
		return w.err
	}
	w.boot = nil
	if _, err := w.f.Write(append(line, '\n')); err != nil { //vetconcurrency:ignore designed-in: w.mu serializes the appends onto the shared handle
		w.err = fmt.Errorf("jobstore: append: %w", err)
		return w.err
	}
	if !w.noSync {
		if err := w.f.Sync(); err != nil { //vetconcurrency:ignore designed-in: durability point; w.mu serializes syncs with appends
			w.err = fmt.Errorf("jobstore: sync: %w", err)
			return w.err
		}
	}
	return nil
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
	w.mu.Lock()
	defer w.mu.Unlock()
	if recs := w.boot; recs != nil {
		w.boot = nil
		return recs, nil
	}
	rp, err := replay(w.path)
	return rp.recs, err
}

// Damage reports what OpenWAL's replay could not read: the number of
// complete lines that were not an entry (each one a lost record
// version) and the byte offset of the first, as the file stood before
// any boot compaction. A torn final line is not damage.
func (w *WAL) Damage() (lines int, firstOffset int64) {
	return w.damaged, w.damageOff
}

// Err returns the sticky write failure, nil while healthy.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close() //vetconcurrency:ignore designed-in: closing the guarded handle must itself hold w.mu
	w.f = nil
	return err
}
