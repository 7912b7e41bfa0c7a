package linelog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// readAll reads the file at path, accepting every line but those equal
// to bad.
func readAll(t *testing.T, path, bad string) ([]string, Scan) {
	t.Helper()
	var lines []string
	sc, err := Read(path, func(line []byte) bool {
		lines = append(lines, string(line))
		return string(line) != bad
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines, sc
}

// TestReadScan: every complete line at any length, the torn tail
// withheld, rejected lines counted and located; a missing file is empty.
func TestReadScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if lines, sc := readAll(t, path, ""); len(lines) != 0 || sc != (Scan{}) {
		t.Fatalf("missing file: %q %+v", lines, sc)
	}
	long := strings.Repeat("x", 200<<10) // three times the reader's buffer
	body := "a\nBAD\n" + long + "\nBAD\nz\n"
	if err := os.WriteFile(path, []byte(body+"torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	lines, sc := readAll(t, path, "BAD")
	if want := []string{"a", "BAD", long, "BAD", "z"}; fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Fatalf("lines = %.80q", lines)
	}
	if want := (Scan{Lines: 5, End: int64(len(body)), Torn: true, Damaged: 2, DamageOff: 2}); sc != want {
		t.Fatalf("scan = %+v, want %+v", sc, want)
	}
}

// TestOpenCutsTornTail: the first append after a crash starts a line of
// its own, and the fragment is gone from the file.
func TestOpenCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("kept\n{\"half"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, sc := readAll(t, path, "")
	l := Open(path, sc, true)
	if err := l.Append([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "kept\nnext\n" {
		t.Fatalf("file = %q", data)
	}
}

// TestStickyFailure: an Append after Close fails, and so does every one
// after it, with the same error; a Log that could not open its file is
// unhealthy from the start and never panics.
func TestStickyFailure(t *testing.T) {
	dir := t.TempDir()
	l := Open(filepath.Join(dir, "log"), Scan{}, false)
	if err := l.Append([]byte("a")); err != nil || l.Err() != nil {
		t.Fatalf("healthy append: %v, Err %v", err, l.Err())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	first := l.Append([]byte("b"))
	if first == nil || l.Err() != first || l.Append([]byte("c")) != first {
		t.Fatalf("failure not sticky: %v then %v", first, l.Err())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	bad := Open(filepath.Join(dir, "no-such-dir", "log"), Scan{}, false)
	if err := bad.Err(); !errors.Is(err, os.ErrNotExist) || bad.Append([]byte("x")) != err || bad.Close() != nil {
		t.Fatalf("unopenable log: Err %v", err)
	}
}

// TestRewrite: the file becomes exactly the given lines; a line that
// cannot be produced leaves the old file in place.
func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("old\nold\nold\ntorn"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := Rewrite(path, 2, func(i int) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Rewrite = %v, want boom", err)
	}
	if lines, _ := readAll(t, path, ""); len(lines) != 3 {
		t.Fatalf("failed rewrite touched the file: %q", lines)
	}
	if err := Rewrite(path, 2, func(i int) ([]byte, error) { return []byte{'a' + byte(i)}, nil }); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "a\nb\n" {
		t.Fatalf("file = %q", data)
	}
}

// TestConcurrentAppend: appends from many goroutines land as whole
// lines (run under -race in CI).
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l := Open(path, Scan{}, false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := l.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lines, sc := readAll(t, path, "")
	seen := map[string]bool{}
	for _, line := range lines {
		seen[line] = true
	}
	if sc.Lines != 400 || len(seen) != 400 || sc.Torn {
		t.Fatalf("%d lines, %d distinct, torn=%v", sc.Lines, len(seen), sc.Torn)
	}
}

// FuzzRead: whatever bytes the file holds, Read fails on none of them
// and accounts for all of them — Lines is the newline count, End the
// offset past the last one, Torn says whether bytes follow it, the
// lines handed out are the file up to End, and damage is what each
// rejected. A line appended through Open then reads back intact after
// every line that was already complete.
func FuzzRead(f *testing.F) {
	f.Add([]byte("{\"key\":\"a\"}\n{\"key\":\"b\"}\n{\"ke"))
	f.Add([]byte("\n\n\r\n\x00\n"))
	f.Add([]byte("no newline at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reject := func(line []byte) bool { return len(line)%3 == 1 }
		var got []byte
		var damaged int
		damageOff := int64(-1)
		sc, err := Read(path, func(line []byte) bool {
			if reject(line) {
				if damaged++; damageOff < 0 {
					damageOff = int64(len(got))
				}
			}
			got = append(append(got, line...), '\n')
			return !reject(line)
		})
		if err != nil {
			t.Fatalf("Read failed on content: %v", err)
		}
		end := int64(bytes.LastIndexByte(data, '\n') + 1)
		if sc.Lines != bytes.Count(data, []byte("\n")) || sc.End != end || sc.Torn != (end < int64(len(data))) {
			t.Fatalf("scan %+v of %d bytes, last newline ends at %d", sc, len(data), end)
		}
		if !bytes.Equal(got, data[:end]) {
			t.Fatalf("lines handed out differ from the file's first %d bytes", end)
		}
		if sc.Damaged != damaged || (damaged > 0 && sc.DamageOff != damageOff) || (damaged == 0 && sc.DamageOff != 0) {
			t.Fatalf("damage %d at %d, want %d at %d", sc.Damaged, sc.DamageOff, damaged, damageOff)
		}

		const sentinel = "appended-after-open"
		l := Open(path, sc, false)
		if err := l.Append([]byte(sentinel)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(data[:end:end], sentinel+"\n"...); !bytes.Equal(after, want) {
			t.Fatalf("after one append the file is %q, want %q", after, want)
		}
	})
}
