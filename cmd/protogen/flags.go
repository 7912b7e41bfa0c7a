package main

// The flags the verbs share: the subject flags that name which SSP a
// run starts from and in which generation mode (SpecFlags), the checker
// scale flags (CheckFlags) and the comma-list splitter (Fields). A
// flag's name, default rule and help text are defined here exactly
// once; a verb picks the ones it has and passes its own defaults.
// doccheck_test.go at the repo root fails if any other file under cmd/
// declares one of these flags or spells out the mode list by hand.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"protogen"
)

// parseHook, when non-nil, sees every verb's FlagSet before it parses
// (the flag-surface test reads the declared flags from it).
var parseHook func(*flag.FlagSet)

// newFlagSet is a verb's FlagSet; -h and flag errors print its usage on
// stdout.
func newFlagSet(verb string, stdout io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("protogen "+verb, flag.ContinueOnError)
	fs.SetOutput(stdout)
	return fs
}

// parse parses args and rejects a positional argument: the flag package
// stops at the first one, so "verify MESI -caches 2" would otherwise
// drop every flag after MESI and check 3-cache MSI.
func parse(fs *flag.FlagSet, args []string) error {
	if parseHook != nil {
		parseHook(fs)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return nil
	}
	hint := ""
	if fs.Lookup("protocol") != nil {
		hint = fmt.Sprintf(" (a protocol is named with -protocol %s)", fs.Arg(0))
	}
	return fmt.Errorf("unexpected argument %q: every flag after it would be ignored%s", fs.Arg(0), hint)
}

// Flag selects which optional flags a Bind call declares, so a verb
// neither gains nor loses a flag by sharing the definitions.
type Flag uint

// The optional flags: the subject sets of SpecFlags and the four
// CheckFlags.
const (
	All Flag = 1 << iota
	Corpus
	Caches
	Parallel
	Timeout
	CacheDir
)

// SpecFlags is the subject of a run: -protocol, -file and -mode, plus
// the -all / -corpus subject sets where a verb takes several. The
// values present when Bind is called are the verb's defaults.
type SpecFlags struct {
	Protocol string // registry name
	File     string // SSP file; beats Protocol where one subject is wanted
	Mode     string // generation mode; "" is the verb's own default
	All      bool   // every registry protocol
	Corpus   bool   // every committed fuzz-corpus reproducer
}

// Bind declares -protocol, -file and -mode on fs, and -all / -corpus
// when sets names them.
func (f *SpecFlags) Bind(fs *flag.FlagSet, sets Flag) {
	fs.StringVar(&f.Protocol, "protocol", f.Protocol, "registry protocol name (protogen generate -list prints the registry); MSI when no subject flag is given")
	fs.StringVar(&f.File, "file", f.File, "read the SSP from this file instead of the registry")
	fs.StringVar(&f.Mode, "mode", f.Mode, "generation mode: "+strings.Join(protogen.Modes, ", "))
	if sets&All != 0 {
		fs.BoolVar(&f.All, "all", f.All, "take every built-in protocol as a subject")
	}
	if sets&Corpus != 0 {
		fs.BoolVar(&f.Corpus, "corpus", f.Corpus, "take every committed fuzz-corpus reproducer as a subject")
	}
}

// Subject is one named, parsed SSP.
type Subject struct {
	Name string
	Spec *protogen.Spec
}

// Subjects resolves the flags into parsed specs: the -all builtins,
// the -corpus reproducers, -file, then -protocol; MSI when
// none of them is given.
func (f *SpecFlags) Subjects() ([]Subject, error) {
	var subs []Subject
	add := func(name, source string) error {
		spec, err := protogen.Parse(source)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		subs = append(subs, Subject{name, spec})
		return nil
	}
	if f.All {
		for _, e := range protogen.Builtins() {
			if err := add(e.Name, e.Source); err != nil {
				return nil, err
			}
		}
	}
	if f.Corpus {
		entries, err := protogen.FuzzCorpus()
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if err := add(e.Name, e.Source); err != nil {
				return nil, err
			}
		}
	}
	if f.File != "" {
		spec, err := protogen.LoadSpec("", f.File)
		if err != nil {
			return nil, err
		}
		subs = append(subs, Subject{f.File, spec})
	}
	name := f.Protocol
	if name == "" && len(subs) == 0 {
		name = "MSI"
	}
	if name != "" {
		spec, err := protogen.LoadSpec(name, "")
		if err != nil {
			return nil, fmt.Errorf("%v (protogen generate -list prints the registry)", err)
		}
		subs = append(subs, Subject{name, spec})
	}
	return subs, nil
}

// Subject resolves the run of a single-protocol verb: the first of
// Subjects (so -file beats -protocol) and the -mode generation options.
func (f *SpecFlags) Subject() (*protogen.Spec, protogen.Options, error) {
	opts, err := protogen.OptionsForMode(f.Mode)
	if err != nil {
		return nil, opts, err
	}
	subs, err := f.Subjects()
	if err != nil {
		return nil, opts, err
	}
	return subs[0].Spec, opts, nil
}

// CheckFlags is the scale of a run: -caches, -parallel, -timeout and
// -cache-dir. The values present when Bind is called are the verb's
// defaults.
type CheckFlags struct {
	Caches   int
	Parallel int
	Timeout  time.Duration
	CacheDir string
}

// Bind declares on fs the flags which names.
func (f *CheckFlags) Bind(fs *flag.FlagSet, which Flag) {
	if which&Caches != 0 {
		fs.Var(cachesValue{&f.Caches}, "caches", "number of caches in the checked system, at most 8 (0 = the job's own default)")
	}
	if which&Parallel != 0 {
		fs.IntVar(&f.Parallel, "parallel", f.Parallel, "workers per job (0 = all cores, 1 = sequential)")
	}
	if which&Timeout != 0 {
		fs.DurationVar(&f.Timeout, "timeout", f.Timeout, "stop after this long and report the partial result (0 = no limit)")
	}
	if which&CacheDir != 0 {
		fs.StringVar(&f.CacheDir, "cache-dir", f.CacheDir, "memoize verify results as JSONL under this directory, keyed by canonical spec + generation options + checker config (docs/CACHING.md has the format and when to wipe it)")
	}
}

// cachesValue is the -caches flag: an int that refuses a count above
// the checker's bound while the command line is still being parsed.
type cachesValue struct{ n *int }

func (c cachesValue) String() string {
	if c.n == nil { // the zero value flag.PrintDefaults compares against
		return "0"
	}
	return strconv.Itoa(*c.n)
}

func (c cachesValue) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	if err := protogen.CheckCaches(n); err != nil {
		return err
	}
	*c.n = n
	return nil
}

// Start derives what the flags describe: ctx bounded by -timeout, and
// an Engine carrying -parallel, -cache-dir and the verb's warnings
// sink (nil for none). done releases both.
func (f *CheckFlags) Start(ctx context.Context, warn func(string)) (_ context.Context, _ *protogen.Engine, done func()) {
	cancel := func() {}
	if f.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, f.Timeout)
	}
	eng := protogen.NewEngine(
		protogen.WithParallelism(f.Parallel),
		protogen.WithCacheDir(f.CacheDir),
		protogen.WithWarnings(warn),
	)
	return ctx, eng, func() {
		_ = eng.Close() // closes the unbuffered result-cache handle; every entry is already written
		cancel()
	}
}

// Fields splits a comma-separated flag value, trimming blanks and
// dropping empty elements; "" yields nil.
func Fields(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
