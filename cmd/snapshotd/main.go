// Command snapshotd serves a partial snapshot object over HTTP/JSON — the
// repository's serving layer. The object defaults to the paper's wait-free
// LockFree implementation: every scan is wait-free, and requests naming
// disjoint component sets do not interfere; see internal/server for the
// endpoint and correctness surface.
//
//	snapshotd -addr 127.0.0.1:8080 -components 64
//
// Flags: -addr, -impl, -components and -optimistic-attempts (versioned
// only).
//
// Every operation served is checked online against the sequential spec
// (internal/server's conformance oracle), for the whole life of the
// daemon, in a window of the operations still in flight. On SIGINT/SIGTERM
// the daemon drains in-flight requests, reads the oracle's verdict one
// last time, prints "conformance OK over N checked ops" and exits zero,
// or exits nonzero if any scan failed the check — a lifetime of traffic
// is never declared healthy without the spec signing off.
//
// Slow clients are cut off: a request's headers and body must arrive
// within 5 s, its reply must be written within 10 s, and an idle
// keep-alive connection is closed after 60 s.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"partialsnapshot/internal/server"
	"partialsnapshot/internal/snapshot"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	impl := flag.String("impl", string(snapshot.ImplLockFree), fmt.Sprintf("implementation %v", snapshot.Impls()))
	components := flag.Int("components", 64, "number of components")
	attempts := flag.Int("optimistic-attempts", -1, "versioned: torn-read budget before escalating (-1 = default)")
	flag.Parse()

	if err := run(*addr, *impl, *components, *attempts); err != nil {
		fmt.Fprintln(os.Stderr, "snapshotd:", err)
		os.Exit(1)
	}
}

// The connection timeouts. A request body is at most 1 MiB, so
// readTimeout is generous for any client that is actually sending;
// writeTimeout covers GET /conformance's bounded settle.
const (
	readTimeout  = 5 * time.Second
	writeTimeout = 10 * time.Second
	idleTimeout  = 60 * time.Second
)

// newHTTPServer returns the daemon's HTTP server for h on addr. Its
// ReadTimeout covers the headers as well as the body.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:         addr,
		Handler:      h,
		ReadTimeout:  readTimeout,
		WriteTimeout: writeTimeout,
		IdleTimeout:  idleTimeout,
	}
}

func run(addr, impl string, components, attempts int) error {
	var opts []snapshot.Option
	if attempts >= 0 {
		opts = append(opts, snapshot.WithOptimisticAttempts(attempts))
	}
	obj, err := snapshot.New[int64](snapshot.Impl(impl), components, opts...)
	if err != nil {
		return err
	}
	srv := server.New(obj, snapshot.Impl(impl), server.Config{})
	httpSrv := newHTTPServer(addr, srv.Handler())
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "snapshotd: serving %s (%d components) on http://%s\n", impl, components, addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "snapshotd: %v, draining\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// The shutdown conformance hook: the drained run must pass the
	// sequential spec or the daemon's exit status says so.
	cr, err := srv.Conformance()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "snapshotd: conformance OK over %d checked ops\n", cr.CheckedOps)
	return nil
}
