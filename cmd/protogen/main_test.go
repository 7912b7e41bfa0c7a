package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

// run runs one verb line (args[0] is the verb) the way Main does, minus
// the signals and the exit code, so a test sees the verb's error.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	for _, v := range verbs {
		if v.name == args[0] {
			return v.run(ctx, args[1:], stdout)
		}
	}
	panic("no verb " + args[0])
}

// runBG is run without cancellation; cancellation tests build their
// own context.
func runBG(args []string, out io.Writer) error { return run(context.Background(), args, out) }

// surface pins every verb's whole flag surface, sorted "name=default",
// as the separate binaries the verbs replace declared it: no flag
// gained, lost or re-defaulted.
var surface = map[string]string{
	"generate":    "L=0 file= list=false machine=cache mode=nonstalling out=summary protocol= stale=false",
	"verify":      "audit-commute=false cache-dir= caches=3 capacity=4 cpuprofile= file= fingerprint=false max=4000000 max-violations=1 memprofile= mode=nonstalling no-lint=false no-liveness=false no-prune=false no-swmr=false no-symmetry=false no-values=false parallel=0 progress=false protocol= reduce=false timeout=0s trace=false",
	"lint":        "all=false code= corpus=false dep-stats=false expect-dirty=false file= json=false mode= protocol= spec-only=false v=false",
	"litmus":      "all=false axiom= caches=0 exhaustive=true file= json=false list=false max-states=0 mode= protocol= runs=0 seed=1 test=",
	"fuzz":        "cache-dir= caches=2 corpus= family= json= list=false litmus-states=0 max=500000 no-lint=false no-litmus=false no-por=false parallel=0 replay=false seeds=0:100 shrink=true sim-steps=3000 timeout=0s v=false",
	"sim":         "caches=3 file= mode=nonstalling protocol= seed=1 steps=50000 timeout=0s workload=contended",
	"serve":       "addr=:8080 cache-dir= corpus= debug-addr= max-attempts=0 parallel=0 queue=64 store= workers=2",
	"experiments": "caches=2 parallel=0 run=all",
}

// TestFlagSurface reads each verb's FlagSet as it parses -h and
// compares every declared flag and default with the pin.
func TestFlagSurface(t *testing.T) {
	defer func() { parseHook = nil }()
	for _, v := range verbs {
		var got []string
		parseHook = func(fs *flag.FlagSet) {
			fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
		}
		if err := runBG([]string{v.name, "-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: %v, want flag.ErrHelp", v.name, err)
		}
		if s := strings.Join(got, " "); s != surface[v.name] {
			t.Errorf("%s flags:\n got %s\nwant %s", v.name, s, surface[v.name])
		}
	}
	if len(surface) != len(verbs) {
		t.Errorf("%d pinned surfaces for %d verbs", len(surface), len(verbs))
	}
}

// TestMainDispatch: no verb, help and -h print the verb list and exit
// 0; an unknown verb is an error naming it that prints the usage on
// stderr; every verb's -h is a clean exit; a verb's error is prefixed
// with the verb.
func TestMainDispatch(t *testing.T) {
	type row struct {
		args           []string
		code           int
		stdout, stderr string
	}
	const usageLine = "usage: protogen <verb>"
	rows := []row{
		{nil, 0, usageLine, ""},
		{[]string{"help"}, 0, usageLine, ""},
		{[]string{"-h"}, 0, usageLine, ""},
		{[]string{"bogus", "-protocol", "MSI"}, 1, "", `protogen: unknown verb "bogus"`},
		{[]string{"bogus"}, 1, "", usageLine},
		{[]string{"verify", "-protocol", "NoSuch"}, 1, "", `protogen verify: unknown protocol "NoSuch"`},
	}
	for _, v := range verbs {
		rows = append(rows, row{[]string{v.name, "-h"}, 0, "Usage of protogen " + v.name + ":", ""})
	}
	for _, r := range rows {
		var out, errOut strings.Builder
		code := Main(r.args, &out, &errOut)
		if code != r.code || !strings.Contains(out.String(), r.stdout) || !strings.Contains(errOut.String(), r.stderr) ||
			r.stderr == "" && errOut.Len() > 0 {
			t.Errorf("%q: exit %d, want %d\nstdout: %s\nstderr: %s", r.args, code, r.code, out.String(), errOut.String())
		}
		for _, v := range verbs {
			if r.stdout == usageLine && !strings.Contains(out.String(), "  "+v.name+" ") {
				t.Errorf("%q: usage lacks verb %s:\n%s", r.args, v.name, out.String())
			}
		}
	}
}

// wantErr runs one verb line and fails unless it errors with every
// wanted string in the message; a verb that takes no subject must not
// suggest -protocol.
func wantErr(t *testing.T, args []string, want ...string) {
	t.Helper()
	err := runBG(args, io.Discard)
	if err == nil {
		t.Errorf("%q: no error", args)
		return
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("%q: error %q lacks %q", args, err, w)
		}
	}
	if !strings.Contains(surface[args[0]], "protocol=") && strings.Contains(err.Error(), "-protocol") {
		t.Errorf("%q: %q suggests -protocol, which %s does not take", args, err, args[0])
	}
}

// wantList runs a verb's -list and fails unless it prints every wanted
// string.
func wantList(t *testing.T, verb string, want ...string) {
	t.Helper()
	var out strings.Builder
	if err := runBG([]string{verb, "-list"}, &out); err != nil {
		t.Fatalf("%s -list: %v", verb, err)
	}
	for _, w := range want {
		if !strings.Contains(out.String(), w) {
			t.Errorf("%s -list lacks %q:\n%s", verb, w, out.String())
		}
	}
}

// TestRunErrors: bad generate flags and values come back as errors that
// name them, before any work starts; and every verb rejects a stray
// positional argument. The other verbs' bad-flag tests sit with them.
func TestRunErrors(t *testing.T) {
	wantErr(t, []string{"generate", "-protocol", "NoSuch"}, `unknown protocol "NoSuch"`, "protogen generate -list")
	wantErr(t, []string{"generate", "-out", "bogus"}, `unknown -out "bogus"`)
	wantErr(t, []string{"generate", "-mode", "bogus"}, `unknown mode "bogus"`)
	wantErr(t, []string{"generate", "-machine", "foo"}, `unknown -machine "foo"`, "cache, dir or directory")
	wantErr(t, []string{"verify", "MESI", "-caches", "2"}, `unexpected argument "MESI"`, "-protocol MESI")
	// A verb that takes a subject suggests -protocol.
	for _, v := range verbs {
		want := []string{`unexpected argument "MOSI"`}
		if strings.Contains(surface[v.name], "protocol=") {
			want = append(want, "-protocol MOSI")
		}
		wantErr(t, []string{v.name, "MOSI", "-h"}, want...)
	}
}

// TestRunList: generate -list prints the protocol registry without
// running anything.
func TestRunList(t *testing.T) {
	wantList(t, "generate", "MSI", "MESI", "MOSI", "TSO_CC")
}
