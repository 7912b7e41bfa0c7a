package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"protogen/internal/service"
)

// listenHook, when non-nil, observes the bound address (tests bind
// :0 and need the resolved port).
var listenHook func(net.Addr)

// serve runs the verification service until its context is canceled,
// then shuts down: running jobs are canceled at their next
// cancellation boundary and recorded as canceled.
func serve(ctx context.Context, args []string, stdout io.Writer) error {
	fs := newFlagSet("serve", stdout)
	var check CheckFlags // per job; the cache is shared by every job
	check.Bind(fs, Parallel|CacheDir)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		workers = fs.Int("workers", 2, "job worker pool size")
		depth   = fs.Int("queue", 64, "max queued jobs before submits get 503")
		corpus  = fs.String("corpus", "", "corpus sink: minimized reproducers from failing fuzz jobs land here")
		store   = fs.String("store", "", "durable job store directory: jobs survive restarts via a write-ahead log (\"\" keeps jobs in memory; see docs/FLEET.md)")
		retries = fs.Int("max-attempts", 0, "dead-letter a running job once this many restarts have interrupted it (0 = default)")
		debug   = fs.String("debug-addr", "", "serve net/http/pprof on this address (opt-in; bind loopback, the endpoints are unauthenticated)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	srv, err := service.New(service.Config{
		Workers:     *workers,
		QueueDepth:  *depth,
		Parallelism: check.Parallel,
		CacheDir:    check.CacheDir,
		CorpusDir:   *corpus,
		StoreDir:    *store,
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
