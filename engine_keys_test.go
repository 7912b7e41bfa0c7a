package protogen

import (
	"context"
	"maps"
	"strings"
	"testing"
)

// TestRawTextIndex: a Source job's raw text is indexed only once its key
// is in the cache; a text the index holds is keyed without a parse; a
// formatting variant is parsed and shares the entry; the index never has
// more entries than the cache; and the cache counts each job once —
// a Cached miss followed by the job's Verify is one miss.
func TestRawTextIndex(t *testing.T) {
	eng := NewEngine(WithCacheDir(t.TempDir()), WithParallelism(1))
	defer eng.Close()
	cfg := QuickVerifyConfig()
	cfg.MaxStates = 500
	job := VerifyJob{Source: BuiltinMSI, Mode: "stalling", Config: &cfg}
	cache, err := eng.Cache()
	if err != nil {
		t.Fatal(err)
	}
	index := func() map[string]string {
		eng.mu.Lock()
		defer eng.mu.Unlock()
		return maps.Clone(eng.keys)
	}
	// inCache checks that every key the index maps to is cached, and that
	// the index is no larger than the cache.
	inCache := func(when string) {
		t.Helper()
		keys := index()
		if len(keys) > cache.Len() {
			t.Fatalf("%s: the index has %d entries, the cache %d", when, len(keys), cache.Len())
		}
		for _, key := range keys {
			if _, ok := cache.Get(key); !ok {
				t.Fatalf("%s: the index maps to %s, which the cache lacks", when, key)
			}
		}
	}

	if _, ok, err := eng.Cached(job); ok || err != nil {
		t.Fatalf("Cached on an empty cache: hit %v, err %v", ok, err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := eng.Verify(canceled, job); err != nil || !res.Canceled {
		t.Fatalf("canceled run: %v, %v", res, err)
	}
	if n := len(index()); n != 0 {
		t.Fatalf("a miss and a canceled run indexed %d texts", n)
	}
	if res, err := eng.Verify(context.Background(), job); err != nil || res.Cached {
		t.Fatalf("cold run: %v, %v", res, err)
	}
	if n := len(index()); n != 1 {
		t.Fatalf("after the cold run the index has %d entries, want 1", n)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("after a Cached miss and two runs: %d hits, %d misses; want 0 and 2", hits, misses)
	}
	inCache("after the cold run")

	r, err := eng.resolveVerify(job)
	if err != nil || r.spec != nil || r.alias != "" {
		t.Fatalf("a text the index holds was parsed (spec %v, alias %q, err %v)", r.spec != nil, r.alias, err)
	}
	for i := 0; i < 4; i++ {
		variant := job
		variant.Source = BuiltinMSI + strings.Repeat("\n", i+1)
		res, ok, err := eng.Cached(variant)
		if err != nil || !ok || !res.Cached {
			t.Fatalf("variant %d: hit %v, err %v", i, ok, err)
		}
		inCache("after a variant")
	}
}
