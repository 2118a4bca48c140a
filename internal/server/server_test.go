package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"partialsnapshot/internal/snapshot"
)

func newTestServer(t *testing.T, impl snapshot.Impl, n int) (*Server, *httptest.Server) {
	t.Helper()
	obj, err := snapshot.New[int64](impl, n)
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
// writers and scanners (batches mixed in), then requires the whole run to
// pass the online conformance check via the /conformance endpoint — the
// oracle proving the whole serving stack (routing, batching, codec)
// produces atomic scans.
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
	// Every update of a batch is one op.
	want := 0
	for k := range iters {
		want += 4 * (1 + k%3%2)
	}
	if !cr.OK || cr.CheckedOps != want || cr.PendingOps != 0 {
		t.Fatalf("conformance %+v, want %d checked ops and none pending", cr, want)
	}
}

// serve runs one request through h in process.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// mixedTraffic sends ops requests, half updates of distinct values and
// half scans, through h from workers goroutines to an 8-component object.
func mixedTraffic(t *testing.T, h http.Handler, workers, ops int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ops / workers {
				path, body := "/scan", fmt.Sprintf(`{"ids":[%d,%d]}`, k%8, (k+3)%8)
				if k%2 == 0 {
					path, body = "/update", fmt.Sprintf(`{"ids":[%d],"vals":[%d]}`, (w+k)%8, w*10_000_000+k+1)
				}
				if rec := serve(h, http.MethodPost, path, body); rec.Code != http.StatusOK {
					t.Errorf("%s %s: %d %s", path, body, rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// window reads how much the conformance checker holds: its retained
// writes plus the ops still in its window.
func (s *Server) window() int {
	st := s.conf.status()
	return st.Retained + st.Pending
}

// TestConformanceWindowStaysBounded pins the checker's memory bound: after
// 100,000 mixed ops, sequential or from 4 goroutines, it holds no more
// than a few writes per component, however many ops were checked.
func TestConformanceWindowStaysBounded(t *testing.T) {
	ops := 100_000
	if testing.Short() || raceEnabled {
		ops = 20_000
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			obj, err := snapshot.New[int64](snapshot.ImplLockFree, 8)
			if err != nil {
				t.Fatal(err)
			}
			srv := New(obj, snapshot.ImplLockFree, Config{})
			mixedTraffic(t, srv.Handler(), workers, ops)
			cr, err := srv.Conformance()
			if err != nil {
				t.Fatal(err)
			}
			if cr.CheckedOps != ops || cr.PendingOps != 0 {
				t.Fatalf("conformance %+v, want %d checked ops and none pending", cr, ops)
			}
			// Once the window drains, a component keeps its latest write
			// and the writes that overlapped it: at most one per worker.
			if held, bound := srv.window(), 8*workers; held > bound {
				t.Fatalf("checker holds %d writes and ops after %d ops, bound %d", held, ops, bound)
			}
		})
	}
}

// TestStatsCostIsFlat: GET /stats reads counters, so what it allocates
// does not grow with the number of ops served.
func TestStatsCostIsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 8)
	if err != nil {
		t.Fatal(err)
	}
	h := New(obj, snapshot.ImplLockFree, Config{}).Handler()
	stats := func() float64 {
		return testing.AllocsPerRun(100, func() {
			if rec := serve(h, http.MethodGet, "/stats", ""); rec.Code != http.StatusOK {
				t.Fatalf("/stats: %d", rec.Code)
			}
		})
	}
	mixedTraffic(t, h, 1, 100)
	early := stats()
	mixedTraffic(t, h, 1, 20_000-100)
	if late := stats(); late != early {
		t.Fatalf("/stats allocates %.1f after 100 ops and %.1f after 20,000", early, late)
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
// test: serve one superseded value and the conformance check must fail,
// whether the bug strikes at once or only after 50,000 requests, far past
// where a recording of the run's first ops would have stopped watching.
// The corruption is planted below the server, in the object it serves —
// the point is that the checker convicts whatever answered the scan, not
// how the stale value arose.
func TestStaleScanWouldBeConvicted(t *testing.T) {
	for _, after := range []int{0, 50_000} {
		t.Run(fmt.Sprintf("after=%d", after), func(t *testing.T) {
			inner, err := snapshot.New[int64](snapshot.ImplLockFree, 8)
			if err != nil {
				t.Fatal(err)
			}
			obj := &staleObject{Object: inner}
			srv := New(obj, snapshot.ImplLockFree, Config{})
			h := srv.Handler()
			mixedTraffic(t, h, 1, after)

			for _, req := range []struct{ path, body string }{
				{"/update", `{"ids":[0],"vals":[-1]}`},
				{"/scan", `{"ids":[0]}`},
				{"/update", `{"ids":[0],"vals":[-2]}`},
			} {
				if rec := serve(h, http.MethodPost, req.path, req.body); rec.Code != http.StatusOK {
					t.Fatalf("%s: %d %s", req.path, rec.Code, rec.Body)
				}
			}
			if _, err := srv.Conformance(); err != nil {
				t.Fatalf("healthy traffic convicted: %v", err)
			}

			// Plant the bug: answer the next scan with the overwritten value.
			obj.stale = []int64{-1}
			rec := serve(h, http.MethodPost, "/scan", `{"ids":[0]}`)
			if rec.Code != http.StatusOK || rec.Body.String() != `{"ids":[0],"vals":[-1]}`+"\n" {
				t.Fatalf("the planted stale value was not served (%d %s); the conviction below would be vacuous", rec.Code, rec.Body)
			}
			if _, err := srv.Conformance(); err == nil {
				t.Fatalf("the checker accepted a stale read after %d requests", after+3)
			} else {
				t.Logf("convicted as designed: %v", err)
			}
		})
	}
}

// TestGrowPastCapIsRejected sends grows that would take the object past
// maxComponents, one of them large enough to overflow any allocation: each
// is a 409 bad_resize that leaves the object as it was and the oracle
// unwedged, so /conformance still answers promptly with a passing verdict.
// A grow to exactly the cap is served.
func TestGrowPastCapIsRejected(t *testing.T) {
	_, ts := newTestServer(t, snapshot.ImplLockFree, 64)
	for _, delta := range []int{1 << 62, maxComponents - 64 + 1} {
		resp, body := post(t, ts, "/grow", ResizeReq{Delta: delta})
		wantStatus(t, resp, body, http.StatusConflict, snapshot.CodeBadResize)
	}
	resp, body := post(t, ts, "/grow", ResizeReq{Delta: maxComponents - 64})
	wantStatus(t, resp, body, http.StatusOK, "")
	resp, body = post(t, ts, "/grow", ResizeReq{Delta: 1})
	wantStatus(t, resp, body, http.StatusConflict, snapshot.CodeBadResize)

	client := &http.Client{Timeout: time.Second}
	cresp, err := client.Get(ts.URL + "/conformance")
	if err != nil {
		t.Fatalf("GET /conformance after rejected grows: %v", err)
	}
	defer cresp.Body.Close()
	var cr ConformanceResp
	if err := json.NewDecoder(cresp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cresp.StatusCode != http.StatusOK || !cr.OK || cr.PendingOps != 0 || cr.CheckedOps != 1 {
		t.Fatalf("conformance after rejected grows: status %d, %+v; want 200, ok, 1 checked op",
			cresp.StatusCode, cr)
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
// bad_request, never a 500, and the server keeps serving. A body over the
// limit is refused by its declared length before it is read, or, sent
// chunked with no declared length, cut once the limit is passed; either
// way the rest of it is left unread and the 413 closes the connection.
func TestOversizedBodies(t *testing.T) {
	srv, ts := newTestServer(t, snapshot.ImplLockFree, 8)
	// unsized hides the reader's length from net/http, so the body goes
	// out chunked.
	type unsized struct{ io.Reader }
	for _, tc := range []struct {
		name, path string
		body       io.Reader
		status     int
	}{
		{"long vals", "/update", strings.NewReader(`{"ids":[0],"vals":[` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`), http.StatusRequestEntityTooLarge},
		{"long whitespace", "/scan", strings.NewReader(`{"ids":[` + strings.Repeat(" ", maxBodyBytes) + `0]}`), http.StatusRequestEntityTooLarge},
		{"chunked", "/scan", unsized{strings.NewReader(`{"ids":[` + strings.Repeat(" ", 2*maxBodyBytes) + `0]}`)}, http.StatusRequestEntityTooLarge},
		{"long ids", "/scan", strings.NewReader(`{"ids":[` + strings.Repeat("0,", maxListLen) + `0]}`), http.StatusBadRequest},
		{"long ops", "/update", strings.NewReader(`{"ops":[` + strings.Repeat(`{"ids":[0],"vals":[1]},`, maxListLen) + `{}]}`), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		wantStatus(t, resp, buf.Bytes(), tc.status, "bad_request")
		if tooLarge := tc.status == http.StatusRequestEntityTooLarge; resp.Close != tooLarge {
			t.Fatalf("%s: connection closed %v, want %v", tc.name, resp.Close, tooLarge)
		}
	}
	resp, body := post(t, ts, "/update", UpdateReq{IDs: []int{1}, Vals: []int64{5}})
	wantStatus(t, resp, body, http.StatusOK, "")
	if n := srv.internal.Load(); n != 0 {
		t.Fatalf("oversized bodies counted %d internal errors", n)
	}
	if n := srv.badRequests.Load(); n != 5 {
		t.Fatalf("bad requests %d, want 5", n)
	}
}

// TestHandlerAllocs is the request path's allocation probe: one update and
// one scan through the handler, each checked by the conformance checker,
// cost at most a few allocations more than GET /healthz through the same
// mux, which is the floor net/http and httptest set. The extra ones are
// the Content-Type reply header and, for a scan, the result slice its
// caller keeps. An update's value slots come from a 128 B run, one
// allocation every eighth width-2 update, which AllocsPerRun's integer
// average rounds away. The checker recycles its op slots and adds none. httptest.NewRecorder does not clone headers or
// discard bodies; TestLoopbackAllocs measures over a real connection.
func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 64)
	if err != nil {
		t.Fatal(err)
	}
	h := New(obj, snapshot.ImplLockFree, Config{}).Handler()
	probe := func(method, path, body string) float64 {
		return testing.AllocsPerRun(500, func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", method, path, w.Code, w.Body)
			}
		})
	}
	floor := probe(http.MethodGet, "/healthz", "")
	update := probe(http.MethodPost, "/update", `{"ids":[3,17],"vals":[4294967297,4294967298]}`)
	scan := probe(http.MethodPost, "/scan", `{"ids":[3,17,40,63]}`)
	t.Logf("allocs per request: healthz %.1f, update %.1f, scan %.1f", floor, update, scan)
	const updateBudget, scanBudget = 2, 3
	if update > floor+updateBudget {
		t.Errorf("update %.1f allocs exceed healthz's %.1f by more than %d", update, floor, updateBudget)
	}
	if scan > floor+scanBudget {
		t.Errorf("scan %.1f allocs exceed healthz's %.1f by more than %d", scan, floor, scanBudget)
	}
}

// rawConn is an allocation-free HTTP/1.1 client over one keep-alive
// connection: it writes prebuilt requests and reads each reply with
// ReadSlice and Discard, so an allocation count taken around its round
// trips is the server's alone.
type rawConn struct {
	c  net.Conn
	br *bufio.Reader
}

var contentLengthKey = []byte("Content-Length")

func dialRaw(t *testing.T, ts *httptest.Server) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 4096)}
}

// rawRequest renders one HTTP/1.1 request; an empty body makes a GET.
func rawRequest(path, body string) []byte {
	if body == "" {
		return []byte("GET " + path + " HTTP/1.1\r\nHost: probe\r\n\r\n")
	}
	return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: probe\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", path, len(body), body))
}

// roundTrip sends req and reads the reply, returning its status code. The
// reply must carry a Content-Length, which net/http sets on every reply
// this server writes in one piece.
func (rc *rawConn) roundTrip(req []byte) (int, error) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < len("HTTP/1.1 200") {
		return 0, fmt.Errorf("short status line %q", line)
	}
	status, length := atoi(line[9:12]), -1
	for {
		if line, err = rc.br.ReadSlice('\n'); err != nil {
			return 0, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte{':'}); ok && bytes.EqualFold(k, contentLengthKey) {
			length = atoi(bytes.TrimSpace(v))
		}
	}
	if length < 0 {
		return 0, errors.New("reply has no Content-Length")
	}
	_, err = rc.br.Discard(length)
	return status, err
}

func atoi(b []byte) int {
	n := 0
	for _, c := range b {
		n = n*10 + int(c-'0')
	}
	return n
}

// TestLoopbackAllocs is TestHandlerAllocs over a real http.Server and one
// raw keep-alive connection, where net/http's own per-request work shows:
// the clone of a reply header the handler set, and the discard of a
// request body the handler left open. An update may cost at most
// updateBudget allocations more than GET /healthz and a scan scanBudget.
// Measured on go1.24 the update's eight are: four net/http spends on any
// request with a body (one more header value, the body reader, its length
// limit and its EOF hook) and four for the Content-Type reply header the
// wire contract pins (the map entry and net/http's clone of the header).
// A scan adds the result slice its caller keeps; an update's value slots
// come from a 128 B run, one allocation every eighth width-2 update, which
// AllocsPerRun's integer average rounds away. The body is read to EOF and
// closed, so no discard runs.
func TestLoopbackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	_, ts := newTestServer(t, snapshot.ImplLockFree, 64)
	rc := dialRaw(t, ts)
	probe := func(path, body string) float64 {
		req := rawRequest(path, body)
		for i := 0; i < 100; i++ { // warm the server's pools
			if _, err := rc.roundTrip(req); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(2000, func() {
			if status, err := rc.roundTrip(req); err != nil || status != http.StatusOK {
				t.Fatalf("%s: %d %v", path, status, err)
			}
		})
	}
	floor := probe("/healthz", "")
	update := probe("/update", `{"ids":[3,17],"vals":[4294967297,4294967298]}`)
	scan := probe("/scan", `{"ids":[3,17,40,63]}`)
	t.Logf("allocs per request over loopback: healthz %.2f, update %.2f, scan %.2f", floor, update, scan)
	const updateBudget, scanBudget = 8, 9
	if update > floor+updateBudget {
		t.Errorf("update %.2f allocs exceed healthz's %.2f by more than %d", update, floor, updateBudget)
	}
	if scan > floor+scanBudget {
		t.Errorf("scan %.2f allocs exceed healthz's %.2f by more than %d", scan, floor, scanBudget)
	}
}
