package verify

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/protocols"
)

func msiCacheKey(t *testing.T, opts core.Options, cfg Config) string {
	t.Helper()
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	return CacheKey(dsl.Format(spec), opts.KeyString(), cfg)
}

// TestCacheKeySensitivity: the key must change with the spec, the
// generation options and every checker field — except the three
// observers, Parallelism, CommuteAudit and Progress, which must NOT move
// it (audited runs bypass the cache at the engine layer instead). The
// reflect walk is what holds a future Config field to that rule: it is
// in the key the day it is added, or it is added to observers here and
// in keyString on purpose.
func TestCacheKeySensitivity(t *testing.T) {
	base := msiCacheKey(t, core.NonStallingOpts(), QuickConfig())

	spec, err := dsl.Parse(protocols.MESI)
	if err != nil {
		t.Fatal(err)
	}
	if k := CacheKey(dsl.Format(spec), core.NonStallingOpts().KeyString(), QuickConfig()); k == base {
		t.Error("different spec, same key")
	}
	if k := msiCacheKey(t, core.StallingOpts(), QuickConfig()); k == base {
		t.Error("different generation options, same key")
	}

	observers := map[string]bool{"Parallelism": true, "CommuteAudit": true, "Progress": true}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		cfg := QuickConfig()
		name, f := typ.Field(i).Name, reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 7)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Func:
			f.Set(reflect.ValueOf(func(Progress) {}))
		default:
			t.Fatalf("Config.%s: teach this test to change a %s", name, f.Kind())
		}
		moved := msiCacheKey(t, core.NonStallingOpts(), cfg) != base
		if moved == observers[name] {
			t.Errorf("Config.%s: moved the key = %v, want %v", name, moved, !observers[name])
		}
	}
}

// TestResultCacheRoundTrip: a stored Result — including a violation
// with its witness trace — survives Put, Get, and a reopen from disk.
func TestResultCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := &Result{
		Protocol: "MSI", States: 11963, Edges: 28281, Depth: 46,
		Complete: true, Quiescent: 218, VisitedBytes: 12345,
		Violations: []Violation{{Kind: "SWMR", Detail: "2 writers, 0 readers", Trace: []string{"a", "b"}}},
	}
	if err := c.Put("k1", want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k1")
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.States != want.States || got.Violations[0].Trace[1] != "b" {
		t.Fatalf("round trip mangled the result: %+v", got)
	}
	// Mutating the returned copy must not corrupt the cache.
	got.Violations[0].Trace[0] = "mutated"
	again, _ := c.Get("k1")
	if again.Violations[0].Trace[0] != "a" {
		t.Fatal("cache aliases caller memory")
	}

	re, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("reopened cache has %d entries, want 1", re.Len())
	}
	back, ok := re.Get("k1")
	if !ok || back.Edges != want.Edges || len(back.Violations) != 1 {
		t.Fatalf("persisted result lost: %+v, %v", back, ok)
	}
	hits, misses := re.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("stats = %d/%d, want 1/0", hits, misses)
	}
}

// TestResultCacheSkipsCorruptLines: a truncated tail (killed run) must
// not take down the whole cache.
func TestResultCacheSkipsCorruptLines(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("good", &Result{Protocol: "MSI", States: 1, Complete: true}); err != nil {
		t.Fatal(err)
	}
	if err := appendRaw(dir, `{"key":"trunc","result":{"Prot`); err != nil {
		t.Fatal(err)
	}
	re, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("entries = %d, want 1 (corrupt line skipped)", re.Len())
	}
	if _, ok := re.Get("good"); !ok {
		t.Fatal("good entry lost")
	}
}

// TestCachedVerifyEquivalence: verifying through the cache returns the
// same observable result as verifying directly.
func TestCachedVerifyEquivalence(t *testing.T) {
	p := gen(t, protocols.MSI, core.NonStallingOpts())
	cfg := QuickConfig()
	cfg.Parallelism = 1
	direct := Check(p, cfg)

	dir := t.TempDir()
	c, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := dsl.Parse(protocols.MSI)
	key := CacheKey(dsl.Format(spec), core.NonStallingOpts().KeyString(), cfg)
	if err := c.Put(key, direct); err != nil {
		t.Fatal(err)
	}
	cached, ok := c.Get(key)
	if !ok {
		t.Fatal("miss")
	}
	if cached.String() != direct.String() {
		t.Fatalf("cached render %q != direct %q", cached, direct)
	}
	if !strings.Contains(cached.String(), "PASS") {
		t.Fatalf("unexpected verdict: %s", cached)
	}
}

func appendRaw(dir, line string) error {
	f, err := os.OpenFile(filepath.Join(dir, cacheFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(line + "\n")
	return err
}

// TestResultCacheTornTailKeepsNextPut: a run killed mid-append leaves a
// line with no newline. The next process's first Put must start a line
// of its own — glued onto the fragment it would be unreadable, and gone
// at the open after that.
func TestResultCacheTornTailKeepsNextPut(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("before", &Result{Protocol: "MSI", States: 1, Complete: true}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	path := filepath.Join(dir, cacheFile)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(whole, `{"key":"torn","result":{"Prot`...), 0o644); err != nil {
		t.Fatal(err)
	}

	next, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := next.Damage(); n != 0 || next.Len() != 1 {
		t.Fatalf("a torn tail is not damage: Damage %d, Len %d", n, next.Len())
	}
	if err := next.Put("after", &Result{Protocol: "MSI", States: 2, Complete: true}); err != nil {
		t.Fatal(err)
	}
	next.Close()

	re, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if r, ok := re.Get("after"); !ok || r.States != 2 || re.Len() != 2 {
		t.Fatalf("the Put after a torn tail was lost: Len %d, hit %v", re.Len(), ok)
	}
	if n, _ := re.Damage(); n != 0 {
		t.Fatalf("the cut-off tail came back as %d damaged line(s)", n)
	}
}

// TestResultCacheLongEntry: an entry of any length reads back and hides
// nothing behind it — a 70 MiB line (past the 64 MiB the old reader
// stopped at, for good) between two small ones reopens as three entries.
func TestResultCacheLongEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and re-reads a 70 MiB cache entry")
	}
	dir := t.TempDir()
	trace := strings.Repeat("t", 70<<20)
	for _, line := range []string{
		`{"key":"first","result":{"Protocol":"MSI","States":1}}`,
		`{"key":"big","result":{"Protocol":"MSI","Violations":[{"Kind":"SWMR","Trace":["` + trace + `"]}]}}`,
		`{"key":"last","result":{"Protocol":"MSI","States":3}}`,
	} {
		if err := appendRaw(dir, line); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, _ := re.Damage(); n != 0 || re.Len() != 3 {
		t.Fatalf("reopen: Len %d, Damage %d; want 3, 0", re.Len(), n)
	}
	if r, ok := re.Get("last"); !ok || r.States != 3 {
		t.Fatal("the entry after the long one was not read")
	}
	if len(re.m["big"].Violations[0].Trace[0]) != len(trace) {
		t.Fatal("the long entry did not round-trip")
	}
}

// TestResultCacheDamageReport: a complete line that is not an entry is
// counted and located, and costs only itself.
func TestResultCacheDamageReport(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", &Result{Protocol: "MSI", States: 1, Complete: true}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	info, err := os.Stat(filepath.Join(dir, cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRaw(dir, `{"key":"","result":null}`); err != nil {
		t.Fatal(err)
	}
	if err := appendRaw(dir, `{"key":"b","result":{"Protocol":"MSI","States":2}}`); err != nil {
		t.Fatal(err)
	}
	re, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, off := re.Damage(); n != 1 || off != info.Size() || re.Len() != 2 {
		t.Fatalf("Damage() = %d at %d, Len %d; want 1 at %d, 2", n, off, re.Len(), info.Size())
	}
}
