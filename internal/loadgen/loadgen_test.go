package loadgen

import (
	"net/http/httptest"
	"testing"
	"time"

	"partialsnapshot/internal/server"
	"partialsnapshot/internal/snapshot"
)

func loopback(t *testing.T, impl snapshot.Impl, n int) *httptest.Server {
	t.Helper()
	obj, err := snapshot.New[int64](impl, n)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(obj, impl, server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestLoopbackRoundTrip is the snapload round trip in miniature: a
// snapshotd on loopback, a short mixed closed-loop run with batching, zero
// 5xx, a passing conformance check, and a sane report (all ops accounted,
// percentiles ordered, histogram totals matching the request count).
func TestLoopbackRoundTrip(t *testing.T) {
	ts := loopback(t, snapshot.ImplLockFree, 16)
	dur := 500 * time.Millisecond
	if testing.Short() {
		dur = 150 * time.Millisecond
	}
	rep, err := Run(Config{
		BaseURL:  ts.URL,
		Conns:    8,
		Duration: dur,
		Scenario: "mixed",
		Batch:    4,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("run failed: %v (report %+v)", err, rep)
	}
	if rep.Errors5xx != 0 || rep.Errors4xx != 0 || rep.Rejected != 0 {
		t.Fatalf("errors on a fixed-universe loopback run: %+v", rep)
	}
	if rep.Ops == 0 || rep.Requests == 0 {
		t.Fatalf("no traffic delivered: %+v", rep)
	}
	if rep.UpdateOps+rep.ScanOps != rep.Ops {
		t.Fatalf("op accounting diverged: %+v", rep)
	}
	// Batching must actually coalesce: fewer HTTP requests than ops.
	if rep.Requests >= rep.Ops {
		t.Fatalf("batching never coalesced: %d requests for %d ops", rep.Requests, rep.Ops)
	}
	if rep.LatencyP50Ms <= 0 || rep.LatencyP50Ms > rep.LatencyP95Ms || rep.LatencyP95Ms > rep.LatencyP99Ms || rep.LatencyP99Ms > rep.LatencyMaxMs {
		t.Fatalf("latency percentiles disordered: %+v", rep)
	}
	var hist uint64
	for _, b := range rep.Histogram {
		hist += b.Count
	}
	if hist != rep.Requests {
		t.Fatalf("histogram counts %d requests of %d", hist, rep.Requests)
	}
	if rep.Conformance == nil || !rep.Conformance.OK || rep.Conformance.CheckedOps == 0 {
		t.Fatalf("conformance not verified: %+v", rep.Conformance)
	}
	// The server's components were auto-detected from /stats.
	if rep.Config.Components != 16 {
		t.Fatalf("component autodetection read %d, want 16", rep.Config.Components)
	}
	t.Logf("loopback: %d ops in %d requests, %.0f ops/sec, p50 %.2fms, %d checked ops conform",
		rep.Ops, rep.Requests, rep.OpsPerSec, rep.LatencyP50Ms, rep.Conformance.CheckedOps)
}

// TestLoopbackPartitioned drives the partitioned shape — conns pinned to
// disjoint component ranges — and checks the locality story end to end:
// the object's locality gauges stay zero, so no operation walked past,
// retried on or helped another connection's announcement.
func TestLoopbackPartitioned(t *testing.T) {
	// 8 conns over 16 components: each conn owns a partition of width 2.
	obj := snapshot.NewLockFree[int64](16)
	ts := httptest.NewServer(server.New(obj, snapshot.ImplLockFree, server.Config{}).Handler())
	defer ts.Close()
	rep, err := Run(Config{
		BaseURL:     ts.URL,
		Conns:       8,
		Duration:    200 * time.Millisecond,
		Scenario:    "partitioned",
		ScanWidth:   2,
		UpdateWidth: 1,
		Seed:        3,
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if rep.Errors5xx != 0 || rep.Errors4xx != 0 {
		t.Fatalf("errors on a partitioned run: %+v", rep)
	}
	if st := obj.Stats(); st.RecordsVisited != 0 || st.ScanRetries != 0 || st.HelpsPosted != 0 {
		t.Fatalf("partitioned traffic interfered: %+v", st)
	}
	if rep.Conformance == nil || !rep.Conformance.OK {
		t.Fatalf("conformance not verified: %+v", rep.Conformance)
	}
}

// TestRunValidation pins the fail-fast surface: bad conns/duration/
// scenario and an unreachable server are errors before any traffic.
func TestRunValidation(t *testing.T) {
	ts := loopback(t, snapshot.ImplRWMutex, 8)
	base := Config{BaseURL: ts.URL, Conns: 2, Duration: 50 * time.Millisecond}
	bad := []Config{
		{BaseURL: ts.URL, Conns: 0, Duration: time.Second},
		{BaseURL: ts.URL, Conns: 2, Duration: 0},
		func() Config { c := base; c.Scenario = "nonsense"; return c }(),
		{BaseURL: "http://127.0.0.1:1", Conns: 2, Duration: time.Second},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: Run accepted a bad config %+v", i, cfg)
		}
	}
}
