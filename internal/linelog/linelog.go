// Package linelog is the one on-disk format this tree persists in: an
// append-only file of newline-terminated lines that its owner folds,
// last write wins, when it opens the file. The job WAL
// (internal/jobstore) and the verify result cache (internal/verify)
// are both one; what a line means is theirs, how lines are read back,
// appended and rewritten across a crash is here.
//
// The crash model is a process killed mid-append: the file ends in a
// line with no newline. Read reports that line as Torn and never hands
// it to the owner; Open cuts it off before the first append, or that
// append would be glued onto the fragment and lost with it at the next
// open. Any other line the owner cannot use is damage: skipped, counted
// and located, never fatal.
package linelog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Scan is what one Read saw of a file.
type Scan struct {
	Lines int   // complete lines, the damaged ones included
	End   int64 // offset just past the last complete line
	Torn  bool  // bytes follow End: a last line with no newline

	Damaged   int   // complete lines each rejected
	DamageOff int64 // offset of the first of them
}

// Read passes every complete line of the file at path, without its
// newline, to each, in file order; a line each returns false for is
// counted as damage. A line may be any length: what Append accepted,
// Read hands back. The slice is only valid during the call. A file that
// does not exist is an empty one, and no content is an error — only the
// filesystem can fail a Read.
func Read(path string, each func(line []byte) bool) (Scan, error) {
	var sc Scan
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return sc, nil
	}
	if err != nil {
		return sc, fmt.Errorf("linelog: %w", err)
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 64*1024)
	var long []byte // a line that outgrew br's buffer
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
			sc.Torn = len(line) > 0
			return sc, nil
		}
		if err != nil {
			return sc, fmt.Errorf("linelog: read %s: %w", path, err)
		}
		if !each(line[:len(line)-1]) {
			if sc.Damaged == 0 {
				sc.DamageOff = sc.End
			}
			sc.Damaged++
		}
		sc.Lines++
		sc.End += int64(len(line))
	}
}

// Rewrite replaces the file at path with the n lines line(0..n-1)
// returns, atomically: a temp file is written and synced, then renamed
// over path, so a crash leaves the old file or the new one.
func Rewrite(path string, n int, line func(i int) ([]byte, error)) error {
	tmp := path + ".rewrite"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("linelog: rewrite: %w", err)
	}
	bw := bufio.NewWriter(f)
	for i := 0; i < n && err == nil; i++ {
		var b []byte
		if b, err = line(i); err == nil {
			bw.Write(b)
			bw.WriteByte('\n')
		}
	}
	if err == nil {
		err = bw.Flush() // reports the first failed Write above
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("linelog: rewrite %s: %w", path, err)
	}
	return nil
}

// Log is the append handle on one file. Appends from any goroutine are
// serialized into whole lines. A failure — opening the file, a write, a
// sync, an Append after Close — is sticky: every later Append returns
// it without touching the file, until the owner opens a new Log.
type Log struct {
	path string
	sync bool

	mu  sync.Mutex
	f   *os.File //protogen:guardedby mu
	err error    //protogen:guardedby mu
}

// Open returns the append handle on the file at path (created if
// needed), which scan — a Read of it just now — describes: a torn tail
// is cut off first. With sync set every Append is fsynced before it
// returns. Open cannot fail; a file it could not open or repair makes
// the Log unhealthy from the start, which Err reports.
func Open(path string, scan Scan, sync bool) *Log {
	l := &Log{path: path, sync: sync}
	if scan.Torn {
		if err := os.Truncate(path, scan.End); err != nil {
			l.err = fmt.Errorf("linelog: cut torn tail: %w", err)
			return l
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.err = fmt.Errorf("linelog: %w", err)
		return l
	}
	l.f = f
	return l
}

// Append writes line (which holds no newline) and its terminator in one
// write and, with sync, fsyncs. It may use line's spare capacity.
func (l *Log) Append(line []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		l.err = fmt.Errorf("linelog: %s: closed", l.path)
		return l.err
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil { //vetconcurrency:ignore designed-in: l.mu serializes the appends onto the shared handle
		l.err = fmt.Errorf("linelog: append: %w", err)
		return l.err
	}
	if l.sync {
		if err := l.f.Sync(); err != nil { //vetconcurrency:ignore designed-in: durability point; l.mu serializes syncs with appends
			l.err = fmt.Errorf("linelog: sync: %w", err)
			return l.err
		}
	}
	return nil
}

// Err returns the sticky failure, nil while healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close closes the file. The Log stays readable through Err; the next
// Append fails.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close() //vetconcurrency:ignore designed-in: closing the guarded handle must itself hold l.mu
	l.f = nil
	return err
}
