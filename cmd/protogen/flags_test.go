package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"protogen"
)

// TestSubjectResolution: flag order is -all, -corpus, -file, -protocol;
// no subject flag means MSI; a single-protocol verb takes the first,
// so -file beats -protocol.
func TestSubjectResolution(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mesi.ssp")
	if err := os.WriteFile(path, []byte(protogen.BuiltinMESI), 0o644); err != nil {
		t.Fatal(err)
	}
	names := func(args ...string) []string {
		t.Helper()
		var f SpecFlags
		fs := newFlagSet("test", io.Discard)
		f.Bind(fs, All|Corpus)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		subs, err := f.Subjects()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range subs {
			if s.Spec == nil {
				t.Fatalf("%s: no parsed spec", s.Name)
			}
			out = append(out, s.Name)
		}
		return out
	}
	if got := names(); !reflect.DeepEqual(got, []string{"MSI"}) {
		t.Errorf("no subject flag: %v, want [MSI]", got)
	}
	if got := names("-protocol", "MOSI", "-file", path); !reflect.DeepEqual(got, []string{path, "MOSI"}) {
		t.Errorf("-file and -protocol: %v", got)
	}
	got := names("-all", "-corpus", "-protocol", "MOSI")
	reg, corpus := protogen.RegistryEntries(), mustCorpus(t)
	if len(got) != len(reg)+len(corpus)+1 || got[0] != reg[0].Name || got[len(reg)] != corpus[0].Name || got[len(got)-1] != "MOSI" {
		t.Errorf("-all -corpus -protocol order wrong: %v", got)
	}

	f := SpecFlags{Protocol: "MOSI", File: path, Mode: "stalling"}
	spec, opts, err := f.Subject()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "MESI" {
		t.Errorf("-file must beat -protocol, got spec %s", spec.Name)
	}
	if opts != protogen.Stalling() {
		t.Errorf("-mode stalling resolved to %+v", opts)
	}
	f = SpecFlags{}
	if spec, opts, err = f.Subject(); err != nil || spec.Name != "MSI" || opts != protogen.NonStalling() {
		t.Errorf("zero SpecFlags: spec %v opts %+v err %v, want MSI nonstalling", spec, opts, err)
	}
}

func mustCorpus(t *testing.T) []protogen.FuzzCorpusEntry {
	t.Helper()
	entries, err := protogen.FuzzCorpus()
	if err != nil || len(entries) == 0 {
		t.Fatalf("corpus: %d entries, %v", len(entries), err)
	}
	return entries
}

// TestSubjectErrors: an unknown protocol points at generate -list, an
// unknown mode names the valid ones, and a missing file is the OS error.
func TestSubjectErrors(t *testing.T) {
	for _, c := range []struct {
		f    SpecFlags
		want []string
	}{
		{SpecFlags{Protocol: "NoSuch"}, []string{`unknown protocol "NoSuch"`, "protogen generate -list"}},
		{SpecFlags{Mode: "bogus"}, append([]string{`unknown mode "bogus"`}, protogen.Modes...)},
		{SpecFlags{File: filepath.Join(t.TempDir(), "absent.ssp")}, []string{"absent.ssp"}},
	} {
		_, _, err := c.f.Subject()
		if err == nil {
			t.Errorf("%+v: no error", c.f)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%+v: error %q lacks %q", c.f, err, w)
			}
		}
	}
}

// TestCachesFlagBound: -caches above the checker's bound is a flag
// error at parse time; the bound itself, zero and negatives parse.
func TestCachesFlagBound(t *testing.T) {
	for _, c := range []struct {
		arg  string
		want int
		ok   bool
	}{{"8", 8, true}, {"0", 0, true}, {"-1", -1, true}, {"9", 3, false}, {"x", 3, false}} {
		f := CheckFlags{Caches: 3}
		fs := newFlagSet("test", io.Discard)
		f.Bind(fs, Caches)
		err := fs.Parse([]string{"-caches", c.arg})
		if (err == nil) != c.ok || f.Caches != c.want {
			t.Errorf("-caches %s: err %v, Caches %d; want ok=%v Caches %d", c.arg, err, f.Caches, c.ok, c.want)
		}
		if !c.ok && err != nil && !strings.Contains(err.Error(), "-caches") {
			t.Errorf("-caches %s: %q does not name the flag", c.arg, err)
		}
	}
}

// TestStart: -timeout derives a deadline (none without it), and the
// engine carries -cache-dir.
func TestStart(t *testing.T) {
	f := CheckFlags{}
	ctx, eng, done := f.Start(context.Background(), nil)
	if _, has := ctx.Deadline(); has {
		t.Error("no -timeout must not arm a deadline")
	}
	if c, err := eng.Cache(); c != nil || err != nil {
		t.Errorf("no -cache-dir: cache %v, err %v", c, err)
	}
	done()

	f = CheckFlags{Timeout: time.Hour, CacheDir: t.TempDir()}
	ctx, eng, done = f.Start(context.Background(), nil)
	dl, has := ctx.Deadline()
	if !has || time.Until(dl) > time.Hour || time.Until(dl) < 59*time.Minute {
		t.Errorf("-timeout 1h: deadline %v (has %v)", dl, has)
	}
	if c, err := eng.Cache(); c == nil || err != nil {
		t.Errorf("-cache-dir: cache %v, err %v", c, err)
	}
	done()
	if ctx.Err() == nil {
		t.Error("done must release the derived context")
	}
}

// TestFields: trims, drops empties, "" is nil.
func TestFields(t *testing.T) {
	for in, want := range map[string][]string{
		"":             nil,
		" , ,":         nil,
		"MP":           {"MP"},
		" MP , SB ,,":  {"MP", "SB"},
		"PG104,PG105 ": {"PG104", "PG105"},
	} {
		if got := Fields(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Fields(%q) = %q, want %q", in, got, want)
		}
	}
}
