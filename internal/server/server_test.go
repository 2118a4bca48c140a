package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"partialsnapshot/internal/snapshot"
)

func newTestServer(t *testing.T, impl snapshot.Impl, n int, opts ...snapshot.Option) (*Server, *httptest.Server) {
	t.Helper()
	obj, err := snapshot.New[int64](impl, n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(obj, impl, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func wantStatus(t *testing.T, resp *http.Response, body []byte, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	if code == "" {
		return
	}
	var e ErrorResp
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body not JSON: %s", body)
	}
	if e.Code != code {
		t.Fatalf("error code %q, want %q (body %s)", e.Code, code, body)
	}
}

// TestHandlerRoundTrip drives the happy path over every endpoint: update,
// partial scan, full scan, batch update, grow, shrink, stats.
func TestHandlerRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, snapshot.ImplLockFree, 8)

	resp, body := post(t, ts, "/update", UpdateReq{IDs: []int{0, 7}, Vals: []int64{10, 70}})
	wantStatus(t, resp, body, http.StatusOK, "")

	resp, body = post(t, ts, "/scan", ScanReq{IDs: []int{7, 0}})
	wantStatus(t, resp, body, http.StatusOK, "")
	var sc ScanResp
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Vals[0] != 70 || sc.Vals[1] != 10 {
		t.Fatalf("scan read %v, want [70 10]", sc.Vals)
	}

	// Batch form: one request, three updates.
	resp, body = post(t, ts, "/update", UpdateReq{Ops: []OneOp{
		{IDs: []int{1}, Vals: []int64{11}},
		{IDs: []int{2}, Vals: []int64{22}},
		{IDs: []int{3}, Vals: []int64{33}},
	}})
	wantStatus(t, resp, body, http.StatusOK, "")
	var ur UpdateResp
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Applied != 3 {
		t.Fatalf("batch applied %d, want 3", ur.Applied)
	}

	resp, body = post(t, ts, "/scan", ScanReq{All: true})
	wantStatus(t, resp, body, http.StatusOK, "")
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.Vals) != 8 || sc.Vals[2] != 22 {
		t.Fatalf("full scan read %v", sc.Vals)
	}

	resp, body = post(t, ts, "/grow", ResizeReq{Delta: 2})
	wantStatus(t, resp, body, http.StatusOK, "")
	var rr ResizeResp
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Components != 10 {
		t.Fatalf("grow to %d, want 10", rr.Components)
	}
	resp, body = post(t, ts, "/shrink", ResizeReq{Delta: 2})
	wantStatus(t, resp, body, http.StatusOK, "")

	resp, body = get(t, ts, "/stats")
	wantStatus(t, resp, body, http.StatusOK, "")
	var st StatsResp
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Impl != "lockfree" || st.Components != 8 {
		t.Fatalf("stats identity wrong: %+v", st)
	}
	if st.UpdateOps != 4 || st.Scans != 2 || st.Resizes != 2 {
		t.Fatalf("stats counters wrong: %+v", st)
	}
	if st.ObjectStats == nil {
		t.Fatalf("lockfree object exposed no object stats")
	}
}

// TestHandlerErrorTaxonomy pins the wire mapping: malformed JSON and
// unknown fields are 400 bad_request, out-of-range ids 400 bad_component,
// infeasible resizes 409 bad_resize, wrong methods 405.
func TestHandlerErrorTaxonomy(t *testing.T) {
	_, ts := newTestServer(t, snapshot.ImplLockFree, 8)

	resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	wantStatus(t, resp, buf.Bytes(), http.StatusBadRequest, "bad_request")

	resp2, body := post(t, ts, "/update", map[string]any{"ids": []int{0}, "vals": []int64{1}, "bogus": true})
	wantStatus(t, resp2, body, http.StatusBadRequest, "bad_request")

	resp2, body = post(t, ts, "/update", UpdateReq{})
	wantStatus(t, resp2, body, http.StatusBadRequest, "bad_request")

	resp2, body = post(t, ts, "/update", UpdateReq{IDs: []int{99}, Vals: []int64{1}})
	wantStatus(t, resp2, body, http.StatusBadRequest, snapshot.CodeBadComponent)

	resp2, body = post(t, ts, "/scan", ScanReq{IDs: []int{-1}})
	wantStatus(t, resp2, body, http.StatusBadRequest, snapshot.CodeBadComponent)

	resp2, body = post(t, ts, "/scan", ScanReq{})
	wantStatus(t, resp2, body, http.StatusBadRequest, "bad_request")

	// Shrink by the whole universe: a resize conflict, 409.
	resp2, body = post(t, ts, "/shrink", ResizeReq{Delta: 8})
	wantStatus(t, resp2, body, http.StatusConflict, snapshot.CodeBadResize)
	resp2, body = post(t, ts, "/grow", ResizeReq{Delta: 0})
	wantStatus(t, resp2, body, http.StatusConflict, snapshot.CodeBadResize)

	resp3, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	_, _ = buf.ReadFrom(resp3.Body)
	resp3.Body.Close()
	wantStatus(t, resp3, buf.Bytes(), http.StatusMethodNotAllowed, "bad_request")
}

// TestConformanceOverConcurrentTraffic hammers the server with concurrent
// writers and scanners (batches mixed in), then requires the recorded
// prefix to pass spec.Check via the /conformance endpoint — the oracle
// proving the whole serving stack (routing, batching, codec) linearizes.
func TestConformanceOverConcurrentTraffic(t *testing.T) {
	_, ts := newTestServer(t, snapshot.ImplLockFree, 8)
	client := ts.Client()

	var wg sync.WaitGroup
	iters := 150
	if testing.Short() {
		iters = 40
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				// Distinct nonzero values, parity-suite style, so the
				// checker can pin every observation to its writer.
				v := int64(w*1_000_000 + k + 1)
				var body any
				switch k % 3 {
				case 0:
					body = UpdateReq{IDs: []int{(w*2 + k) % 8}, Vals: []int64{v}}
				case 1:
					body = UpdateReq{Ops: []OneOp{
						{IDs: []int{w % 8}, Vals: []int64{v}},
						{IDs: []int{(w + 4) % 8}, Vals: []int64{-v}},
					}}
				default:
					body = ScanReq{IDs: []int{w % 8, (w + 3) % 8, (w + 6) % 8}}
				}
				path := "/update"
				if k%3 == 2 {
					path = "/scan"
				}
				data, _ := json.Marshal(body)
				resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(data))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					var buf bytes.Buffer
					_, _ = buf.ReadFrom(resp.Body)
					t.Errorf("worker %d: %s %d: %s", w, path, resp.StatusCode, buf.String())
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	resp, body := get(t, ts, "/conformance")
	wantStatus(t, resp, body, http.StatusOK, "")
	var cr ConformanceResp
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.OK || cr.CheckedOps == 0 {
		t.Fatalf("conformance did not check anything: %+v", cr)
	}
	t.Logf("conformance: %d recorded ops pass spec.Check", cr.CheckedOps)
}

// TestConformanceRecordingCloses pins the bounded-prefix protocol: with a
// tiny cap, recording admits every op up to the cap, drains, closes, and
// later traffic is not recorded — the history stays bounded no matter how
// long the server lives.
func TestConformanceRecordingCloses(t *testing.T) {
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(obj, snapshot.ImplLockFree, Config{MaxRecordedOps: 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for k := 0; k < 30; k++ {
		resp, body := post(t, ts, "/update", UpdateReq{IDs: []int{k % 4}, Vals: []int64{int64(k + 1)}})
		wantStatus(t, resp, body, http.StatusOK, "")
	}
	recorded, closed := srv.conf.status()
	if !closed {
		t.Fatalf("recording still open after 30 sequential ops with cap 10")
	}
	// Sequential traffic: no scan is ever in flight at the cap, so the
	// drain window admits nothing and the history is exactly the cap.
	if recorded != 10 {
		t.Fatalf("recorded %d ops, want exactly the cap 10", recorded)
	}
	cr, err := srv.Conformance()
	if err != nil {
		t.Fatal(err)
	}
	if !cr.OK || cr.CheckedOps != 10 || !cr.RecordingClosed {
		t.Fatalf("conformance after close: %+v", cr)
	}
}

// staleObject is a deliberately broken object: once armed, PartialScan
// answers with the values held in stale instead of reading the object.
type staleObject struct {
	snapshot.Object[int64]
	stale []int64
}

func (o *staleObject) PartialScan(ids []int) ([]int64, error) {
	if o.stale != nil {
		return o.stale, nil
	}
	return o.Object.PartialScan(ids)
}

// TestStaleScanWouldBeConvicted is the serving-layer oracle's mutation
// test: serve one superseded value and the conformance check must fail.
// The corruption is planted below the server, in the object it serves —
// the point is that the recorder and spec.Check convict whatever answered
// the scan, not how the stale value arose.
func TestStaleScanWouldBeConvicted(t *testing.T) {
	inner, err := snapshot.New[int64](snapshot.ImplLockFree, 8)
	if err != nil {
		t.Fatal(err)
	}
	obj := &staleObject{Object: inner}
	srv := New(obj, snapshot.ImplLockFree, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/update", UpdateReq{IDs: []int{0}, Vals: []int64{1}})
	wantStatus(t, resp, body, http.StatusOK, "")
	resp, body = post(t, ts, "/scan", ScanReq{IDs: []int{0}})
	wantStatus(t, resp, body, http.StatusOK, "")
	resp, body = post(t, ts, "/update", UpdateReq{IDs: []int{0}, Vals: []int64{2}})
	wantStatus(t, resp, body, http.StatusOK, "")

	// Plant the bug: answer the next scan with the overwritten value.
	obj.stale = []int64{1}
	resp, body = post(t, ts, "/scan", ScanReq{IDs: []int{0}})
	wantStatus(t, resp, body, http.StatusOK, "")
	var sc ScanResp
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Vals[0] != 1 {
		t.Fatalf("the planted stale value was not served (%+v); the conviction below would be vacuous", sc)
	}
	if _, err := srv.Conformance(); err == nil {
		t.Fatalf("spec.Check accepted a history containing a stale read")
	} else {
		t.Logf("convicted as designed: %v", err)
	}
}

// TestServerOverEveryImpl smoke-runs the server over each factory
// implementation — the serving layer must not depend on which object it
// serves.
func TestServerOverEveryImpl(t *testing.T) {
	for _, impl := range snapshot.Impls() {
		t.Run(string(impl), func(t *testing.T) {
			_, ts := newTestServer(t, impl, 8)
			resp, body := post(t, ts, "/update", UpdateReq{IDs: []int{3}, Vals: []int64{9}})
			wantStatus(t, resp, body, http.StatusOK, "")
			resp, body = post(t, ts, "/scan", ScanReq{All: true})
			wantStatus(t, resp, body, http.StatusOK, "")
			var sc ScanResp
			if err := json.Unmarshal(body, &sc); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(sc.Vals) != "[0 0 0 9 0 0 0 0]" {
				t.Fatalf("%s served %v", impl, sc.Vals)
			}
			resp, body = get(t, ts, "/conformance")
			wantStatus(t, resp, body, http.StatusOK, "")
		})
	}
}

// TestOversizedBodies sends bodies past each size limit: a body over
// maxBodyBytes is a 413 and a list over maxListLen a 400, both
// bad_request, never a 500, and the server keeps serving.
func TestOversizedBodies(t *testing.T) {
	srv, ts := newTestServer(t, snapshot.ImplLockFree, 8)
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/update", `{"ids":[0],"vals":[` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`, http.StatusRequestEntityTooLarge},
		{"/scan", `{"ids":[` + strings.Repeat(" ", maxBodyBytes) + `0]}`, http.StatusRequestEntityTooLarge},
		{"/scan", `{"ids":[` + strings.Repeat("0,", maxListLen) + `0]}`, http.StatusBadRequest},
		{"/update", `{"ops":[` + strings.Repeat(`{"ids":[0],"vals":[1]},`, maxListLen) + `{}]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		wantStatus(t, resp, buf.Bytes(), tc.status, "bad_request")
	}
	resp, body := post(t, ts, "/update", UpdateReq{IDs: []int{1}, Vals: []int64{5}})
	wantStatus(t, resp, body, http.StatusOK, "")
	if n := srv.internal.Load(); n != 0 {
		t.Fatalf("oversized bodies counted %d internal errors", n)
	}
	if n := srv.badRequests.Load(); n != 4 {
		t.Fatalf("bad requests %d, want 4", n)
	}
}

// TestHandlerAllocs is the request path's allocation probe: one update and
// one scan through the handler cost at most a few allocations more than
// GET /healthz through the same mux, which is the floor net/http and
// httptest set. The extra ones are the body limit and the object's own:
// the update's cell batch, the scan's result slice.
func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 64)
	if err != nil {
		t.Fatal(err)
	}
	h := New(obj, snapshot.ImplLockFree, Config{MaxRecordedOps: 1}).Handler()
	probe := func(method, path, body string) float64 {
		return testing.AllocsPerRun(500, func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", method, path, w.Code, w.Body)
			}
		})
	}
	// Close conformance recording first: past it no operation copies its
	// ids and values, which is the steady state the probe measures.
	for k := 0; k < 3; k++ {
		probe(http.MethodPost, "/scan", `{"ids":[3,17,40,63]}`)
	}
	floor := probe(http.MethodGet, "/healthz", "")
	update := probe(http.MethodPost, "/update", `{"ids":[3,17],"vals":[4294967297,4294967298]}`)
	scan := probe(http.MethodPost, "/scan", `{"ids":[3,17,40,63]}`)
	t.Logf("allocs per request: healthz %.1f, update %.1f, scan %.1f", floor, update, scan)
	const budget = 4
	if update > floor+budget || scan > floor+budget {
		t.Fatalf("update %.1f or scan %.1f allocs exceed healthz's %.1f by more than %d", update, scan, floor, budget)
	}
}
