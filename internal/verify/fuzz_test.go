package verify

import (
	"os"
	"path/filepath"
	"testing"
)

// seedCache is a cache file the package itself wrote — two entries, one
// of them rewritten — with a torn tail appended, the way a run killed
// mid-append leaves it.
func seedCache(f *testing.F) []byte {
	dir := f.TempDir()
	c, err := OpenResultCache(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i, key := range []string{"k1", "k2", "k1"} {
		r := &Result{Protocol: "MSI", States: 11963 + i, Edges: 28281, Depth: 46, Complete: true,
			Violations: []Violation{{Kind: "SWMR", Detail: "2 writers", Trace: []string{"a", "b"}}}}
		if err := c.Put(key, r); err != nil {
			f.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, cacheFile))
	if err != nil {
		f.Fatal(err)
	}
	return append(file, `{"key":"k3","result":{"Protocol":"MS`...)
}

// FuzzResultCacheOpen: whatever bytes the cache file holds,
// OpenResultCache returns a cache (only the filesystem may refuse), an
// entry Put after the open survives the next open, and that open — past
// any tail repair the first one did — sees the same keys.
func FuzzResultCacheOpen(f *testing.F) {
	file := seedCache(f)
	f.Add(file)
	f.Add(file[:len(file)/2])
	f.Add([]byte("\n\n{}\n{\"key\":\"\"}\n{\"key\":\"k\",\"result\":null}\nnull\n"))
	f.Fuzz(func(t *testing.T, file []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, cacheFile), file, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenResultCache(dir)
		if err != nil {
			t.Fatalf("OpenResultCache refused a readable file: %v", err)
		}
		if n, off := c.Damage(); n < 0 || off < 0 || off > int64(len(file)) || (n == 0 && off != 0) {
			t.Fatalf("Damage() = %d, %d on a %d-byte file", n, off, len(file))
		}
		want := map[string]bool{"sentinel-put-after-open": true}
		for key := range c.m {
			want[key] = true
		}
		if err := c.Put("sentinel-put-after-open", &Result{Protocol: "sentinel", States: 7, Complete: true}); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := OpenResultCache(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		if r, ok := re.Get("sentinel-put-after-open"); !ok || r.Protocol != "sentinel" || r.States != 7 {
			t.Fatalf("the entry put after open did not survive the next open: %+v", r)
		}
		for key := range want {
			if _, ok := re.m[key]; !ok {
				t.Fatalf("reopen lost key %q", key)
			}
		}
		if len(re.m) != len(want) {
			t.Fatalf("reopen sees %d keys, the first open (plus the sentinel) %d", len(re.m), len(want))
		}
	})
}
