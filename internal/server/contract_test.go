package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"partialsnapshot/internal/snapshot"
)

// The repository benchmark (perfbench, a separate module) drives this
// package through a fixed surface and reads several JSON keys by name, as
// untyped JSON: a key that disappears silently drops a benchmark metric
// instead of breaking a build. These tests pin that surface from inside
// the root module, where `go test ./...` reaches them.

// TestBenchmarkContractSurface uses the Go API the benchmark compiles
// against: New with a zero Config, Handler, and Conformance's CheckedOps.
func TestBenchmarkContractSurface(t *testing.T) {
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 64)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(obj, snapshot.ImplLockFree, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/update", UpdateReq{IDs: []int{3, 1}, Vals: []int64{30, 10}})
	wantStatus(t, resp, body, http.StatusOK, "")
	conf, err := srv.Conformance()
	if err != nil {
		t.Fatal(err)
	}
	if conf.CheckedOps != 1 {
		t.Fatalf("CheckedOps %d, want 1", conf.CheckedOps)
	}
}

// TestBenchmarkContractStats pins the GET /stats keys the benchmark reads.
// cache_hits and cache_misses stay, at 0, though the server has no cache.
func TestBenchmarkContractStats(t *testing.T) {
	_, ts := newTestServer(t, snapshot.ImplLockFree, 64)
	resp, body := post(t, ts, "/scan", ScanReq{IDs: []int{0, 1}})
	wantStatus(t, resp, body, http.StatusOK, "")
	resp, body = get(t, ts, "/stats")
	wantStatus(t, resp, body, http.StatusOK, "")
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]any{
		"cache_hits":       0.0,
		"cache_misses":     0.0,
		"recorded_ops":     1.0,
		"recording_closed": false,
		"rejected":         0.0,
		"internal_errors":  0.0,
	} {
		got, ok := fields[key]
		if !ok {
			t.Errorf("/stats has no %q key: %s", key, body)
		} else if got != want {
			t.Errorf("/stats %q = %v, want %v", key, got, want)
		}
	}
}

// TestBenchmarkContractObjectStats pins the snapshot.Stats keys the
// benchmark reads from the object it serves.
func TestBenchmarkContractObjectStats(t *testing.T) {
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 64)
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := obj.(snapshot.StatsReader)
	if !ok {
		t.Fatal("the lock-free object reads no stats")
	}
	raw, err := json.Marshal(sr.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scan_retries", "helps_posted", "helps_adopted", "registry_walks",
		"walks_skipped", "records_visited", "record_reuses", "max_help_depth", "live_announcements"} {
		if _, ok := fields[key].(float64); !ok {
			t.Errorf("object stats have no numeric %q key: %s", key, raw)
		}
	}
}

// TestBenchmarkContractScanReply pins the scan reply byte for byte for the
// benchmark's own request body: the requested ids echoed in order, one
// value each, and the trailing newline.
func TestBenchmarkContractScanReply(t *testing.T) {
	_, ts := newTestServer(t, snapshot.ImplLockFree, 64)
	resp, body := post(t, ts, "/update", UpdateReq{IDs: []int{17, 3}, Vals: []int64{170, -30}})
	wantStatus(t, resp, body, http.StatusOK, "")
	if string(body) != `{"applied":1}`+"\n" {
		t.Fatalf("update reply %q", body)
	}
	r, err := http.Post(ts.URL+"/scan", "application/json", strings.NewReader(`{"ids":[3,40,17,0]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	if want := `{"ids":[3,40,17,0],"vals":[-30,0,170,0]}` + "\n"; got.String() != want {
		t.Fatalf("scan reply %q, want %q", got.String(), want)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("scan reply Content-Type %q", ct)
	}
}
