// Command protogen is the command-line tool: a designer writes a
// stable-state specification (SSP), generates the complete concurrent
// directory protocol from it, and checks that protocol, one verb per
// step. This comment is the usage reference; `protogen <verb> -h` lists
// a verb's flags with their defaults.
//
//	protogen <verb> [flags]
//	protogen help            # the verb list (also -h, or no verb)
//
// Every flag follows its verb, and a stray positional argument is an
// error: a protocol is named with -protocol, never bare. The flags the
// verbs share have one name, meaning and help text wherever a verb has
// them: -protocol NAME (MSI when no subject flag is given), -file F
// (beats -protocol), -mode stalling|nonstalling|deferred, -all and
// -corpus (every registry protocol / committed fuzz reproducer),
// -caches N (at most 8), -parallel N (0 = all cores; results are
// identical at every setting), -timeout D and -cache-dir DIR (verify
// results memoized across runs, docs/CACHING.md).
//
// SIGINT and SIGTERM cancel the running job: verify, sim and fuzz
// print the partial result (states explored, steps run, seeds
// completed) and exit 1; serve shuts down gracefully. Any error prints
// as "protogen <verb>: err" on stderr and exits 1.
//
// generate prints the generated protocol: -out summary, table, dsl,
// murphi, dot or fsm; -machine cache or dir (directory); -list prints
// the registry.
//
//	protogen generate -protocol MSI -mode nonstalling -out table
//	protogen generate -file my.ssp -mode stalling -out murphi
//
// verify model-checks SWMR, the data-value invariant, deadlock freedom
// and quiescence reachability — the role Murphi plays in the paper.
// -fingerprint keeps 64-bit state fingerprints instead of full keys
// (5.2-5.6x less visited-set memory); every exact run prints
// "fingerprint collisions: N over M states", the states it would
// falsely merge. -reduce is partial-order reduction (identical
// verdicts, fewer states); -audit-commute re-executes its fused rules
// and fails on any discrepancy. -progress streams per-level lines;
// -cpuprofile and -memprofile write pprof profiles (docs/PERFORMANCE.md).
// Lint findings print first as "warning: lint: ..." lines; -no-lint
// silences them.
//
//	protogen verify -protocol MSI -mode nonstalling -caches 2
//	protogen verify -protocol TSO_CC -no-swmr -no-values   # deadlock only
//	protogen verify -protocol MSI -max-violations 5 -trace # all witnesses
//	protogen verify -protocol MSI -mode stalling -reduce -audit-commute
//	protogen verify -protocol MOSI -caches 3 -cache-dir .vcache
//
// lint runs the static analyzer (stable PGnnn codes, no state
// exploration; docs/ANALYSIS.md) and exits 1 unless every subject lints
// clean; -expect-dirty inverts that for the regression corpus.
// -dep-stats prints one JSON line of rule-dependence statistics per
// (subject, mode) instead.
//
//	protogen lint -all                           # every registry protocol (CI gate)
//	protogen lint -corpus -expect-dirty          # every reproducer must lint dirty
//	protogen lint -protocol MESI -spec-only -json -code PG104,PG105
//
// litmus enumerates every schedule of the litmus catalog's shapes, so
// outcome sets are exact, and classifies them against the sc, tso or
// weak axiom (docs/LITMUS.md); it exits 1 on a forbidden outcome, a
// stuck configuration, or a -runs sample outside the exhaustive set.
//
//	protogen litmus -all                           # every registry protocol (CI gate)
//	protogen litmus -protocol TSO_CC -test MP,SB   # a named subset
//	protogen litmus -protocol MESI -axiom sc -json # force an axiom
//	protogen litmus -list                          # print the catalog
//
// fuzz runs the randomized-spec differential campaign: seeded SSPs from
// the protocol families are generated in all three modes and
// model-checked, and the verdicts are cross-checked against each other,
// the simulator's SC checker, lint (-no-lint), the litmus oracle
// (-no-litmus) and the reduced exploration (-no-por). Failures shrink
// to minimal reproducers; -corpus writes them.
//
//	protogen fuzz -seeds 0:200                    # the standard campaign
//	protogen fuzz -seeds 0:200 -cache-dir .vcache # rerunning re-verifies nothing
//	protogen fuzz -family FZ_MI_double_grant -corpus /tmp/corpus
//	protogen fuzz -replay                         # replay the committed corpus
//	protogen fuzz -list                           # families, boundaries, corpus
//
// sim runs a protocol under randomized scheduling and reports stalls,
// messages and transaction latencies.
//
//	protogen sim -protocol MSI -mode stalling -workload contended -steps 50000
//
// serve runs the verification service, an HTTP/JSON job queue drained
// by -workers runner goroutines (docs/FLEET.md). With -store DIR jobs
// are fsynced to a write-ahead log before the 202 and survive a
// restart; a job the process died under is rerun at the next boot, and
// dead-lettered once -max-attempts restarts have interrupted it. A
// verify job the shared result cache already holds is
// answered in its 202 ("status": "done", "cached": true). -debug-addr
// serves net/http/pprof on a separate listener; keep it loopback.
//
//	protogen serve -addr :8080 -workers 2 -store .jobs -cache-dir .vcache -corpus .corpus
//
//	POST   /jobs             submit: {"kind":"verify","protocol":"MSI","mode":"nonstalling","caches":2}
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        status + latest typed progress snapshot
//	GET    /jobs/{id}/result full result (verify Result / fuzz Report / sim Stats)
//	DELETE /jobs/{id}        cancel (queued/running) or free a finished job's record
//	GET    /healthz          job, queue and cache health
//	GET    /corpus           reproducers collected by the corpus sink
//
// experiments regenerates every table and figure of the paper's
// evaluation (§VI) and exits 1 when a claim fails to reproduce.
//
//	protogen experiments -run table6         # Table VI and its primer diff
//	protogen experiments -run e-b -caches 3  # §VI-B verification at paper scale
//	protogen experiments -run all
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// verbs lists the verbs in usage order.
var verbs = []struct {
	name, what string
	run        func(ctx context.Context, args []string, stdout io.Writer) error
}{
	{"generate", "generate the concurrent protocol and print it", generate},
	{"verify", "model-check it: SWMR, data values, deadlock, quiescence", verify},
	{"lint", "run the static analyzer over SSPs and their protocols", lint},
	{"litmus", "run the exhaustive weak-memory litmus oracle", litmus},
	{"fuzz", "run the randomized-spec differential campaign", fuzz},
	{"sim", "simulate it under randomized scheduling", sim},
	{"serve", "run the verification service (HTTP/JSON job queue)", serve},
	{"experiments", "regenerate the tables and figures of the paper (§VI)", experiments},
}

func main() { os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr)) }

// Main runs the verb args[0] names on the rest of args and returns the
// exit code. No verb, help or -h prints the usage and is a clean exit;
// an unknown verb prints it on stderr. The verb's context is canceled
// by SIGINT or SIGTERM. A verb's -h is a clean exit; any other error
// prints as "protogen <verb>: err" on stderr and exits 1.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || args[0] == "help" || args[0] == "-h" {
		usage(stdout)
		return 0
	}
	for _, v := range verbs {
		if v.name != args[0] {
			continue
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := v.run(ctx, args[1:], stdout)
		stop()
		if err != nil && !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stderr, "protogen %s: %v\n", v.name, err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "protogen: unknown verb %q\n", args[0])
	usage(stderr)
	return 1
}

func usage(w io.Writer) {
	fmt.Fprint(w, "usage: protogen <verb> [flags]; protogen <verb> -h lists the verb's flags\n\nverbs:\n")
	for _, v := range verbs {
		fmt.Fprintf(w, "  %-12s %s\n", v.name, v.what)
	}
}
