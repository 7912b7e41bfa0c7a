// Command vetconcurrency is the repo's concurrency-discipline vet
// tool: the static half of the concurrency gate (the dynamic half is
// the full `go test -race ./...` matrix in CI). It speaks the cmd/go
// vet-tool protocol (the same one golang.org/x/tools' unitchecker
// implements) using only the standard library, so it runs as:
//
//	go build -o /tmp/vetconcurrency ./cmd/vetconcurrency
//	go vet -vettool=/tmp/vetconcurrency ./...
//
// Running it over ./... is safe: packages outside the concurrent set
// (internal/store, internal/service, internal/verify, internal/fuzz,
// internal/engine, internal/sim, internal/jobstore, internal/bus,
// internal/linelog, and the root package) are no-ops.
//
// Checks (stable codes; see docs/ANALYSIS.md for the full contract):
//
//	CC001  a field annotated //protogen:guardedby mu is accessed
//	       without the named mutex held
//	CC002  channel send/receive, Wait, time.Sleep, or file/network
//	       I/O while an annotated guard mutex is held
//	CC003  a goroutine with an unbounded loop and no visible exit
//	       path (ctx check, channel receive, WaitGroup-paired return)
//	CC004  an exported function takes context.Context somewhere other
//	       than first, or a ctx-carrying function passes
//	       context.Background()/TODO() to a callee
//	CC005  sync/atomic operations on a guardedby-annotated field
//
// A finding the analyzer cannot see past (construction-time writes
// behind an option closure, designed-in I/O under a cache lock) is
// suppressed with "//vetconcurrency:ignore <reason>" on the same line
// or the line above; the reason is mandatory — a bare directive is
// itself an error (CC000).
package main

import "protogen/internal/vet"

func main() {
	vet.Main(vet.Tool{
		Name:  "vetconcurrency",
		Wants: vet.ConcurrencyTarget,
		Check: vet.CheckConcurrency,
	})
}
