package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServe boots serve on an ephemeral port with args added and
// returns the API base URL and a stop that cancels it (the SIGINT path)
// and requires a graceful shutdown.
func startServe(t *testing.T, out io.Writer, args ...string) (base string, stop func()) {
	addrc := make(chan net.Addr, 1)
	listenHook = func(a net.Addr) { addrc <- a }
	t.Cleanup(func() { listenHook = nil })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, append([]string{"serve", "-addr", "127.0.0.1:0", "-workers", "1"}, args...), out)
	}()
	select {
	case a := <-addrc:
		base = "http://" + a.String()
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never started listening")
	}
	return base, func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("graceful shutdown returned %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
}

// TestServeSmoke boots the server on an ephemeral port with a durable
// store and a result cache, submits a small verify job through the real
// HTTP stack, waits for it, reads its result, resubmits the identical
// job and requires the 202 itself to answer it from the shared cache
// ("status": "done", "cached": true), and shuts
// down via context cancellation (the SIGINT path). It is the service's
// end-to-end acceptance; CI has no second harness for it.
func TestServeSmoke(t *testing.T) {
	var out syncBuffer
	base, stop := startServe(t, &out, "-cache-dir", t.TempDir(), "-store", t.TempDir())

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// accepted is what a 202 says about the job it accepted.
	type accepted struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
	}
	// submitAndWait posts the job and polls it to "done", returning its
	// 202 and whether the finished job was served from the result cache.
	submitAndWait := func() (sub accepted, cached bool) {
		body := `{"kind":"verify","protocol":"MSI","mode":"nonstalling","caches":2}`
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if sub.ID == "" {
			t.Fatal("submit returned no job id")
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("job never finished")
			}
			resp, err := http.Get(fmt.Sprintf("%s/jobs/%s", base, sub.ID))
			if err != nil {
				t.Fatal(err)
			}
			var v struct {
				Status string `json:"status"`
				Cached bool   `json:"cached"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if v.Status == "done" {
				return sub, v.Cached
			}
			if v.Status == "failed" || v.Status == "canceled" {
				t.Fatalf("job finished %s", v.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	sub, cached := submitAndWait()
	if cached || sub.Status != "queued" {
		t.Fatalf("first submission: 202 %+v, cached %v", sub, cached)
	}
	resp, err = http.Get(fmt.Sprintf("%s/jobs/%s/result", base, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	var result struct {
		Complete bool
	}
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !result.Complete {
		t.Fatal(`result lacks "Complete": true`)
	}
	// The identical resubmit is answered in its 202: done and cached
	// before any worker sees it.
	if sub, cached := submitAndWait(); !cached || sub.Status != "done" || !sub.Cached {
		t.Fatalf("identical resubmit: 202 %+v, cached %v; want the 202 to say done and cached", sub, cached)
	}

	stop()
	if !strings.Contains(out.String(), "protoserve listening on") {
		t.Fatalf("missing banner in output: %q", out.String())
	}
}

// syncBuffer guards a bytes.Buffer for tests that read server output
// while the serving goroutine is still writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDebugMux: -debug-addr serves net/http/pprof on its own listener,
// and the pprof endpoints never leak onto the main API mux.
func TestDebugMux(t *testing.T) {
	var out syncBuffer
	base, stop := startServe(t, &out, "-debug-addr", "127.0.0.1:0")
	// The banner carries the resolved debug address.
	var debugBase string
	deadline := time.Now().Add(5 * time.Second)
	for debugBase == "" {
		if time.Now().After(deadline) {
			t.Fatalf("debug banner never appeared: %q", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "protoserve debug/pprof on "); ok {
				debugBase = strings.TrimSuffix(rest, "/debug/pprof/")
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(debugBase + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug heap profile: %d", resp.StatusCode)
	}
	// The main mux must NOT serve pprof.
	resp, err = http.Get(base + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof leaked onto the main API listener")
	}
	stop()
}

// TestRunServeBadFlags: an unknown flag is an error naming it.
func TestRunServeBadFlags(t *testing.T) {
	wantErr(t, []string{"serve", "-definitely-not-a-flag"}, "-definitely-not-a-flag")
}
