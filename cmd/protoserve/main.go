// Command protoserve runs the verification service: an HTTP/JSON job
// queue over the protogen Engine API. Clients submit verify / fuzz /
// simulate jobs, poll status with live progress, fetch results and
// cancel mid-flight; a bounded worker pool shares one verify result
// cache and failing fuzz campaigns sink minimized reproducers into a
// corpus directory. A verify job the cache already holds is answered in
// its submit: the 202 says "status": "done" and "cached": true, the job
// took one store write, and no worker saw it.
//
// Usage:
//
//	protoserve -addr :8080 -workers 2 -cache-dir .vcache -corpus .corpus
//
// Endpoints:
//
//	POST   /jobs             submit: {"kind":"verify","protocol":"MSI","mode":"nonstalling","caches":2}
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        status + latest typed progress snapshot
//	GET    /jobs/{id}/result full result (verify Result / fuzz Report / sim Stats)
//	DELETE /jobs/{id}        cancel (queued/running) or free a finished job's record
//	GET    /healthz          worker, queue and cache health
//	GET    /corpus           reproducers collected by the corpus sink
//
// Internally the service is a coordinator/worker fleet over a typed
// message bus with lease-based execution, retry with backoff, and
// dead-lettering (docs/FLEET.md). With -store DIR the job queue is
// durable: submitted jobs are fsynced to a write-ahead log before the
// 202 response, and a restarted server replays the log — finished
// results are served from the store and interrupted jobs re-run.
//
// SIGINT/SIGTERM shut down gracefully: running jobs are canceled at
// their next cancellation boundary and recorded as canceled.
//
// -debug-addr (opt-in, keep it loopback) serves net/http/pprof on a
// separate listener, so a live service can be CPU- and heap-profiled
// without redeploying: protoserve -addr :8080 -debug-addr 127.0.0.1:6060
// then `go tool pprof http://127.0.0.1:6060/debug/pprof/profile`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"syscall"
	"time"

	"protogen"
	"protogen/cmd/internal/cli"
	"protogen/internal/service"
)

func main() { cli.Main("protoserve", run, syscall.SIGTERM) }

// listenHook, when non-nil, observes the bound address (tests bind
// :0 and need the resolved port).
var listenHook func(net.Addr)

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("protoserve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var check cli.CheckFlags // per job; the cache is shared by every job
	check.Bind(fs, cli.Parallel|cli.CacheDir)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		workers  = fs.Int("workers", 2, "job worker pool size")
		depth    = fs.Int("queue", 64, "max queued jobs before submits get 503")
		corpus   = fs.String("corpus", "", "corpus sink: minimized reproducers from failing fuzz jobs land here")
		store    = fs.String("store", "", "durable job store directory: jobs survive restarts via a write-ahead log (\"\" keeps jobs in memory; see docs/FLEET.md)")
		leaseTTL = fs.Duration("lease-ttl", 0, "worker lease TTL before a silent attempt is reassigned (0 = default)")
		retries  = fs.Int("max-attempts", 0, "execution attempts per job before dead-lettering (0 = default)")
		debug    = fs.String("debug-addr", "", "serve net/http/pprof on this address (opt-in; bind loopback, the endpoints are unauthenticated)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fuzz family exemplars and corpus reproducers become addressable
	// by name in submitted jobs, same as protofuzz -list.
	if err := protogen.RegisterFuzzEntries(); err != nil {
		return err
	}

	srv, err := service.New(service.Config{
		Workers:     *workers,
		QueueDepth:  *depth,
		Parallelism: check.Parallel,
		CacheDir:    check.CacheDir,
		CorpusDir:   *corpus,
		StoreDir:    *store,
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *retries,
	})
	if err != nil {
		return err
	}

	var debugSrv *http.Server
	if *debug != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			return fmt.Errorf("debug-addr: %w", err)
		}
		debugSrv = &http.Server{Handler: dmux}
		go func() { _ = debugSrv.Serve(dln) }()
		fmt.Fprintf(stdout, "protoserve debug/pprof on http://%s/debug/pprof/\n", dln.Addr())
		defer debugSrv.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if listenHook != nil {
		listenHook(ln.Addr())
	}
	fmt.Fprintf(stdout, "protoserve listening on %s (%d workers, cache %q, corpus %q)\n",
		ln.Addr(), *workers, check.CacheDir, *corpus)

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		_ = srv.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "protoserve: shutting down (canceling running jobs)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	return srv.Shutdown(shutdownCtx)
}
