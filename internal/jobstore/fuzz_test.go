package jobstore

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// seedLog is a log the WAL itself wrote — puts, an upsert, a tombstone —
// with a torn tail appended, the way a crash mid-append leaves it.
func seedLog(f *testing.F) []byte {
	dir := f.TempDir()
	w, err := OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	done := mkRec("job-2", StateDone)
	done.Result = []byte(`{"states":11963,"edges":28281}`)
	for _, rec := range []Record{
		mkRec("job-1", StateQueued), mkRec("job-2", StateQueued), mkRec("job-3", StateRunning), done,
	} {
		if err := w.Put(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Delete("job-1"); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, WALName))
	if err != nil {
		f.Fatal(err)
	}
	return append(log, `{"op":"put","rec":{"id":"job-4","kind":"ver`...)
}

// ids lists the records' IDs and states in order, failing on an empty
// or repeated ID.
func ids(t *testing.T, recs []Record) []string {
	t.Helper()
	seen := map[string]bool{}
	var out []string
	for _, rec := range recs {
		if rec.ID == "" || seen[rec.ID] {
			t.Fatalf("Load returned an empty or repeated ID %q: %+v", rec.ID, recs)
		}
		seen[rec.ID] = true
		out = append(out, rec.ID+" "+string(rec.State))
	}
	return out
}

// FuzzWALReplay: whatever bytes the log file holds, OpenWAL returns a
// store (only the filesystem may refuse), Load yields unique non-empty
// IDs, a record put after boot survives the next boot, and that boot —
// past any compaction or tail repair the first one did — sees the same
// records in the same order.
func FuzzWALReplay(f *testing.F) {
	log := seedLog(f)
	f.Add(log)
	f.Add(log[:len(log)/2])
	f.Add([]byte("\n\n{}\n{\"op\":\"del\"}\n{\"op\":\"put\",\"rec\":{\"id\":\"\"}}\nnull\n"))
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, WALName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(dir, WALOptions{NoSync: true})
		if err != nil {
			t.Fatalf("OpenWAL refused a readable file: %v", err)
		}
		recs, err := w.Load()
		if err != nil {
			t.Fatal(err)
		}
		want := ids(t, recs)
		if n, off := w.Damage(); n < 0 || off < 0 || off > int64(len(log)) || (n == 0 && off != 0) {
			t.Fatalf("Damage() = %d, %d on a %d-byte log", n, off, len(log))
		}

		const sentinel = "sentinel-put-after-boot"
		if err := w.Put(Record{ID: sentinel, State: StateQueued}); err != nil {
			t.Fatal(err)
		}
		fresh := true
		for i, rec := range recs {
			if rec.ID == sentinel {
				want[i], fresh = sentinel+" "+string(StateQueued), false
			}
		}
		if fresh {
			want = append(want, sentinel+" "+string(StateQueued))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		w2, err := OpenWAL(dir, WALOptions{NoSync: true})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer w2.Close()
		recs2, err := w2.Load()
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(t, recs2); !slices.Equal(got, want) {
			t.Fatalf("reopen changed the record set:\n first boot %q\nsecond boot %q", want, got)
		}
	})
}
