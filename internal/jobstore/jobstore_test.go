package jobstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// storeFactory builds a fresh store plus a reopen function: nil for
// stores with no durability to exercise.
type storeFactory struct {
	name   string
	open   func(t *testing.T) Store
	reopen func(t *testing.T, s Store) Store // close s, open the same backing again
}

func factories() []storeFactory {
	return []storeFactory{
		{
			name: "Mem",
			open: func(t *testing.T) Store { return NewMem() },
		},
		{
			name: "WAL",
			open: func(t *testing.T) Store {
				w, err := OpenWAL(t.TempDir(), WALOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return w
			},
			reopen: func(t *testing.T, s Store) Store {
				w := s.(*WAL)
				dir := filepath.Dir(w.path)
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				w2, err := OpenWAL(dir, WALOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return w2
			},
		},
	}
}

func mkRec(id string, state State) Record {
	ok := state == StateDone
	return Record{
		ID:        id,
		Kind:      "verify",
		Request:   []byte(`{"kind":"verify"}`),
		State:     state,
		Attempt:   1,
		Submitted: time.Unix(100, 0).UTC(),
		Updated:   time.Unix(101, 0).UTC(),
		OK:        &ok,
		Failures:  []string{"attempt 1: transient"},
	}
}

// TestStoreConformance runs the shared contract over both
// implementations: upsert, ordering, deletion, copy isolation.
func TestStoreConformance(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			s := f.open(t)
			defer s.Close()

			if err := s.Put(Record{}); err == nil {
				t.Fatal("empty-ID record accepted")
			}
			for _, id := range []string{"a", "b", "c"} {
				if err := s.Put(mkRec(id, StateQueued)); err != nil {
					t.Fatal(err)
				}
			}
			// Upsert b: same position, new state.
			upd := mkRec("b", StateDone)
			upd.Result = []byte(`{"states":12}`)
			if err := s.Put(upd); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("a"); err != nil {
				t.Fatal(err)
			}
			recs, err := s.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 || recs[0].ID != "b" || recs[1].ID != "c" {
				t.Fatalf("load after upsert+delete: %+v", recs)
			}
			if recs[0].State != StateDone || string(recs[0].Result) != `{"states":12}` {
				t.Fatalf("upsert lost: %+v", recs[0])
			}
			// Copy isolation: mutating the loaded record must not leak in.
			recs[0].Failures[0] = "mutated"
			recs2, _ := s.Load()
			if recs2[0].Failures[0] != "attempt 1: transient" {
				t.Fatal("Load aliases the store's backing slices")
			}
			if s.Err() != nil {
				t.Fatalf("healthy store reports %v", s.Err())
			}
		})
	}
}

// TestWALReplay: a reopened log recovers the latest version of every
// record in first-submission order — the boot-time recovery path.
func TestWALReplay(t *testing.T) {
	for _, f := range factories() {
		if f.reopen == nil {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			s := f.open(t)
			for i := 0; i < 5; i++ {
				if err := s.Put(mkRec(fmt.Sprintf("job-%d", i), StateQueued)); err != nil {
					t.Fatal(err)
				}
			}
			// job-1 runs to done; job-3 is left running at attempt 2 by a
			// log line from before records lost their lease fields
			// (worker, lease_expiry, not_before).
			done := mkRec("job-1", StateDone)
			if err := s.Put(done); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("job-4"); err != nil {
				t.Fatal(err)
			}
			fh, err := os.OpenFile(s.(*WAL).path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.WriteString(`{"op":"put","rec":{"id":"job-3","kind":"verify","request":{"kind":"verify"},"state":"running","attempt":2,"worker":"w1","lease_expiry":"1970-01-01T00:03:20Z","not_before":"1970-01-01T00:02:30Z","submitted":"1970-01-01T00:01:40Z","updated":"1970-01-01T00:01:41Z","started":"1970-01-01T00:01:42Z","failures":["attempt 1: lease expired (worker w0)"]}}` + "\n"); err != nil {
				t.Fatal(err)
			}
			if err := fh.Close(); err != nil {
				t.Fatal(err)
			}

			s = f.reopen(t, s)
			defer s.Close()
			recs, err := s.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 4 {
				t.Fatalf("replayed %d records, want 4: %+v", len(recs), recs)
			}
			byID := map[string]Record{}
			order := []string{}
			for _, r := range recs {
				byID[r.ID] = r
				order = append(order, r.ID)
			}
			if want := []string{"job-0", "job-1", "job-2", "job-3"}; strings.Join(order, ",") != strings.Join(want, ",") {
				t.Fatalf("replay order %v, want %v", order, want)
			}
			if byID["job-1"].State != StateDone {
				t.Fatalf("job-1 state %s", byID["job-1"].State)
			}
			orphan := byID["job-3"]
			if orphan.State != StateRunning || orphan.Attempt != 2 || orphan.Started == nil ||
				!orphan.Started.Equal(time.Unix(102, 0).UTC()) || len(orphan.Failures) != 1 {
				t.Fatalf("old-format running record: %+v", orphan)
			}
		})
	}
}

// TestWALTornLine: a crash mid-append leaves a torn final line; replay
// must drop it and keep everything before it.
func TestWALTornLine(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(mkRec("ok-1", StateQueued)); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(mkRec("ok-2", StateDone)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, WALName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"put","rec":{"id":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("replay with torn line: %v", err)
	}
	defer w2.Close()
	recs, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "ok-1" || recs[1].ID != "ok-2" {
		t.Fatalf("torn-line replay: %+v", recs)
	}
	// The log must still accept appends after the torn tail.
	if err := w2.Put(mkRec("ok-3", StateQueued)); err != nil {
		t.Fatal(err)
	}
}

// TestWALCompaction: a churn-heavy log is rewritten at boot to its
// live set.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rec := mkRec("hot", StateQueued)
		rec.Attempt = i
		if err := w.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Put(mkRec("cold", StateDone)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := walLines(t, dir)
	if before != 101 {
		t.Fatalf("pre-compaction lines: %d", before)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if after := walLines(t, dir); after != 2 {
		t.Fatalf("post-compaction lines: %d, want 2", after)
	}
	recs, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "hot" || recs[0].Attempt != 99 || recs[1].ID != "cold" {
		t.Fatalf("compaction lost state: %+v", recs)
	}
}

func walLines(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, WALName))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// TestWALStickyError: a failed append leaves the store unhealthy —
// reads keep working, writes keep failing — until reopened.
func TestWALStickyError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(mkRec("a", StateQueued)); err != nil {
		t.Fatal(err)
	}
	// Pull the file out from under the store: the next append fails.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(mkRec("b", StateQueued)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if w.Err() == nil {
		t.Fatal("write failure not sticky")
	}
	recs, err := w.Load()
	if err != nil || len(recs) != 1 {
		t.Fatalf("degraded store lost reads: %v %+v", err, recs)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Err() != nil {
		t.Fatalf("reopen did not heal: %v", w2.Err())
	}
}

// TestMemFailHook: the injected failure gates writes and surfaces via
// Err — the degraded-mode test hook the service healthz tests use.
func TestMemFailHook(t *testing.T) {
	m := NewMem()
	if err := m.Put(mkRec("a", StateQueued)); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("disk on fire")
	m.Fail(boom)
	if err := m.Put(mkRec("b", StateQueued)); err != boom {
		t.Fatalf("Put under failure: %v", err)
	}
	if m.Err() != boom {
		t.Fatalf("Err: %v", m.Err())
	}
	m.Fail(nil)
	if err := m.Put(mkRec("b", StateQueued)); err != nil {
		t.Fatalf("healed store: %v", err)
	}
}

// TestStoreReputAfterDelete: an ID put again after its tombstone is one
// record, listed where the new submission falls — never twice.
func TestStoreReputAfterDelete(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			s := f.open(t)
			defer func() { s.Close() }()
			for _, id := range []string{"a", "b"} {
				if err := s.Put(mkRec(id, StateQueued)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Delete("a"); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(mkRec("a", StateDone)); err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				recs, err := s.Load()
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != 2 || recs[0].ID != "b" || recs[1].ID != "a" || recs[1].State != StateDone {
					t.Fatalf("%s: %+v", when, recs)
				}
			}
			check("live handle")
			if f.reopen != nil {
				s = f.reopen(t, s)
				check("reopened")
			}
		})
	}
}

// TestWALHoldsNoRecords: the open log is a file handle, not a mirror.
// 200 finished jobs with 256 KiB results (50 MiB of records) through one
// handle leave the heap where it was.
func TestWALHoldsNoRecords(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	result := []byte(`"` + strings.Repeat("r", 256<<10) + `"`)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for i := 0; i < 200; i++ {
		rec := mkRec(fmt.Sprintf("job-%d", i), StateDone)
		rec.Result = result
		if err := w.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	grown := heap() - before
	runtime.KeepAlive(w)
	if grown > 8<<20 {
		t.Fatalf("heap grew %d KiB across 200 puts: the WAL is retaining records", grown>>10)
	}
	recs, err := w.Load()
	if err != nil || len(recs) != 200 || len(recs[199].Result) != len(result) {
		t.Fatalf("load after puts: %v, %d records", err, len(recs))
	}
}

// TestWALLongRecord: what Put accepts, replay reads back — a 17 MiB
// line (one large fuzz report) must not stop the next boot.
func TestWALLongRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	big := mkRec("big", StateDone)
	big.Result = []byte(`"` + strings.Repeat("x", 17<<20) + `"`)
	for _, rec := range []Record{mkRec("before", StateQueued), big, mkRec("after", StateQueued)} {
		if err := w.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("reopen after a 17 MiB record: %v", err)
	}
	defer w2.Close()
	recs, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].ID != "before" || recs[1].ID != "big" || recs[2].ID != "after" {
		t.Fatalf("replayed %d records", len(recs))
	}
	if !bytes.Equal(recs[1].Result, big.Result) {
		t.Fatalf("large result came back %d bytes, wrote %d", len(recs[1].Result), len(big.Result))
	}
	if n, _ := w2.Damage(); n != 0 {
		t.Fatalf("damage on a clean log: %d", n)
	}
}

// tornTail is what a crash mid-append leaves at the end of the log.
const tornTail = `{"op":"put","rec":{"id":"torn`

// TestWALDamageReport: a line that is not an entry in the middle of the
// log is skipped AND counted, with the offset it starts at; the torn
// tail after it stays silent.
func TestWALDamageReport(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"one", "two", "three"} {
		if err := w.Put(mkRec(id, StateQueued)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, WALName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	wantOff := int64(len(lines[0]))
	lines[1][len(lines[1])/2] = '\x00' // flip one byte of record two
	data = append(bytes.Join(lines, nil), tornTail...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("open damaged log: %v", err)
	}
	defer w2.Close()
	recs, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "one" || recs[1].ID != "three" {
		t.Fatalf("recovered %+v, want one and three", recs)
	}
	if n, off := w2.Damage(); n != 1 || off != wantOff {
		t.Fatalf("Damage() = %d lines, first at %d; want 1 at %d", n, off, wantOff)
	}
}

// TestWALTornTailCutOff: the torn tail is removed at open, so the first
// record appended after a crash is not glued onto the fragment and lost
// with it at the following boot.
func TestWALTornTailCutOff(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, WALName)
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(mkRec("ok-1", StateQueued)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	clean, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(clean, tornTail...), 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cut, _ := os.ReadFile(path); !bytes.Equal(cut, clean) {
		t.Fatalf("torn tail still in the file: %q", cut[len(clean):])
	}
	if err := w2.Put(mkRec("ok-2", StateQueued)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	recs, _ := w3.Load()
	if len(recs) != 2 || recs[1].ID != "ok-2" {
		t.Fatalf("record appended after the crash was lost: %+v", recs)
	}
	if n, _ := w3.Damage(); n != 0 {
		t.Fatalf("a crash followed by an append reads as damage: %d", n)
	}
}
