package core

import "testing"

// TestKeyStringPinned holds the option text that enters every verify
// result-cache key, and the report note, to the bytes recorded before
// the stale-forward switch was removed: a moved byte would orphan every
// cached verdict without a cacheKeyVersion bump to say so.
func TestKeyStringPinned(t *testing.T) {
	cases := []struct {
		mode  string
		prune bool
		key   string
		note  string
	}{
		{"stalling", true, "nonstalling=false immediate=false transient=true limit=3 prune=true stalefwd=true",
			"stalling; transient loads allowed; L=3"},
		{"stalling", false, "nonstalling=false immediate=false transient=true limit=3 prune=false stalefwd=true",
			"stalling; transient loads allowed; L=3"},
		{"nonstalling", true, "nonstalling=true immediate=true transient=true limit=3 prune=true stalefwd=true",
			"non-stalling, immediate responses; transient loads allowed; L=3"},
		{"nonstalling", false, "nonstalling=true immediate=true transient=true limit=3 prune=false stalefwd=true",
			"non-stalling, immediate responses; transient loads allowed; L=3"},
		{"deferred", true, "nonstalling=true immediate=false transient=true limit=3 prune=true stalefwd=true",
			"non-stalling, deferred responses; transient loads allowed; L=3"},
		{"deferred", false, "nonstalling=true immediate=false transient=true limit=3 prune=false stalefwd=true",
			"non-stalling, deferred responses; transient loads allowed; L=3"},
	}
	for _, c := range cases {
		o, err := OptionsForMode(c.mode)
		if err != nil {
			t.Fatal(err)
		}
		o.PruneSharerOnStalePut = c.prune
		if got := o.KeyString(); got != c.key {
			t.Errorf("%s prune=%t: KeyString\n got %s\nwant %s", c.mode, c.prune, got, c.key)
		}
		if got := o.Note(); got != c.note {
			t.Errorf("%s prune=%t: Note\n got %s\nwant %s", c.mode, c.prune, got, c.note)
		}
	}
}
