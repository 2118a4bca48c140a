// Command snapshotd serves a partial snapshot object over HTTP/JSON — the
// repository's serving layer. The object defaults to the paper's wait-free
// LockFree implementation: every scan is wait-free, and requests naming
// disjoint component sets do not interfere; see internal/server for the
// endpoint and correctness surface.
//
//	snapshotd -addr 127.0.0.1:8080 -components 64
//
// On SIGINT/SIGTERM the daemon drains in-flight requests, runs the
// conformance oracle (spec.Check over the recorded traffic prefix) one
// last time, and exits nonzero if the history fails — a lifetime of
// traffic is never declared healthy without the spec signing off.
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
	maxRecorded := flag.Int("max-recorded-ops", 0, "conformance recording admission cap (0 = default)")
	flag.Parse()

	if err := run(*addr, *impl, *components, *attempts, *maxRecorded); err != nil {
		fmt.Fprintln(os.Stderr, "snapshotd:", err)
		os.Exit(1)
	}
}

func run(addr, impl string, components, attempts, maxRecorded int) error {
	var opts []snapshot.Option
	if attempts >= 0 {
		opts = append(opts, snapshot.WithOptimisticAttempts(attempts))
	}
	obj, err := snapshot.New[int64](snapshot.Impl(impl), components, opts...)
	if err != nil {
		return err
	}
	srv := server.New(obj, snapshot.Impl(impl), server.Config{MaxRecordedOps: maxRecorded})

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
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
	// The shutdown conformance hook: the drained history must pass the
	// sequential spec or the daemon's exit status says so.
	cr, err := srv.Conformance()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "snapshotd: conformance OK over %d recorded ops\n", cr.CheckedOps)
	return nil
}
