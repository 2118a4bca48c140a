package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"partialsnapshot/internal/server"
	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/workload"
)

// serveMixed is serve-mixed's traffic: uniform picks over all components,
// half scans of width 4, half updates of width 2, one op per request.
var serveMixed = workload.Config{Shape: workload.Uniform, Components: components,
	Workers: loadWorkers, ScanWidth: 4, UpdateWidth: 2, ScanFrac: 0.5}

// reqIDHeader carries the client's request id to the traced handler, so a
// client span and the server span it caused can be joined.
const reqIDHeader = "X-Bench-Req"

// host serves a handler on a loopback port until close.
type host struct {
	hs   *http.Server
	ln   net.Listener
	done chan error
}

func startHost(h http.Handler) (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return &host{hs: hs, ln: ln, done: done}, nil
}

func (h *host) addr() string { return h.ln.Addr().String() }

// close stops the server and waits for its accept loop to return.
func (h *host) close() error {
	err := h.hs.Close()
	if serr := <-h.done; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// client is one keep-alive HTTP/1.1 connection speaking just enough of the
// protocol for the benchmark: hand-written requests, so the generator's
// own cost per request stays small and steady.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReader(conn)}, nil
}

// do sends one request (a GET when body is nil) and returns the reply's
// status and body. id 0 sends no request id.
func (c *client) do(path string, id uint64, body []byte) (int, []byte, error) {
	r := c.req[:0]
	if body == nil {
		r = append(r, "GET "...)
	} else {
		r = append(r, "POST "...)
	}
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	if id != 0 {
		r = append(r, reqIDHeader+": "...)
		r = strconv.AppendUint(r, id, 10)
		r = append(r, "\r\n"...)
	}
	if body != nil {
		r = append(r, "Content-Type: application/json\r\nContent-Length: "...)
		r = strconv.AppendInt(r, int64(len(body)), 10)
		r = append(r, "\r\n"...)
	}
	r = append(r, "\r\n"...)
	r = append(r, body...)
	c.req = r
	if _, err := c.conn.Write(r); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, reply, err
}

// reqSpan is one client request, timed against the window's epoch: when it
// was due, when the pacer woke for it (0 if it was already late), when it
// was written and when its reply was read.
type reqSpan struct {
	kind                  workload.Kind
	status                int
	due, wake, sent, recv time.Duration
	next                  time.Duration // Stream.Next time (traced)
}

// loadConn is one open-loop connection: its own Poisson schedule, its own
// workload stream, one request in flight at a time. A request due while
// the previous one is still out waits, and that wait counts in its
// latency.
type loadConn struct {
	idx      int
	cl       *client
	schedule []time.Duration
	spans    []reqSpan // one per scheduled request
	stream   *workload.Stream
	err      error // transport failure that ended the schedule early
	problems []string
}

// reqID names request i of connection idx on the wire (never 0).
func reqID(idx, i int) uint64 { return uint64(idx)<<32 | uint64(i+1) }

func (l *loadConn) run(epoch time.Time, traced bool) {
	p, err := newPacer()
	if err != nil {
		l.err = err
		return
	}
	defer p.close()
	var body []byte
	var ids []int
	for i, due := range l.schedule {
		s := &l.spans[i]
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		op := l.stream.Next()
		if traced {
			s.next = time.Since(t0)
		}
		s.kind, s.due = op.Kind, due
		body = encodeOp(body[:0], op)
		path := "/update"
		if op.Kind == workload.OpScan {
			path = "/scan"
			ids = append(ids[:0], op.Comps...)
		}
		if now := time.Since(epoch); now < due {
			if l.err = p.sleep(due - now); l.err != nil {
				return
			}
			s.wake = time.Since(epoch)
		}
		s.sent = time.Since(epoch)
		status, reply, err := l.cl.do(path, reqID(l.idx, i), body)
		s.recv = time.Since(epoch)
		s.status = status
		if err != nil {
			l.err = fmt.Errorf("request %d: %w", i, err)
			return
		}
		if status != http.StatusOK {
			l.problem("%s returned %d: %s", path, status, bytes.TrimSpace(reply))
		} else if op.Kind == workload.OpScan {
			if msg := checkScanReply(ids, reply); msg != "" {
				l.problem("%s", msg)
			}
		}
	}
}

// problem records a failed check, keeping the first few verbatim.
func (l *loadConn) problem(format string, args ...any) {
	if len(l.problems) < 5 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// encodeOp appends op's request body: {"ids":[...]} for a scan,
// {"ids":[...],"vals":[...]} for an update.
func encodeOp(b []byte, op workload.Op) []byte {
	b = append(b, `{"ids":[`...)
	for i, c := range op.Comps {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	b = append(b, ']')
	if op.Kind == workload.OpUpdate {
		b = append(b, `,"vals":[`...)
		for i, v := range op.Vals {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// checkScanReply checks that a scan reply echoes the requested ids in
// order with one value each; "" means it does.
func checkScanReply(ids []int, reply []byte) string {
	var r struct {
		IDs  []int   `json:"ids"`
		Vals []int64 `json:"vals"`
	}
	if err := json.Unmarshal(reply, &r); err != nil {
		return fmt.Sprintf("scan reply %q: %v", reply, err)
	}
	if len(r.Vals) != len(ids) || len(r.IDs) != len(ids) {
		return fmt.Sprintf("scan of %v answered %d ids and %d values", ids, len(r.IDs), len(r.Vals))
	}
	for i := range ids {
		if r.IDs[i] != ids[i] {
			return fmt.Sprintf("scan of %v echoed ids %v", ids, r.IDs)
		}
	}
	return ""
}

// tracedHandler times every request the server handles.
type tracedHandler struct {
	next  http.Handler
	epoch time.Time
	mu    sync.Mutex
	spans []handlerSpan
}

type handlerSpan struct {
	id         uint64
	start, end time.Duration
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Since(t.epoch)
	t.next.ServeHTTP(w, r)
	end := time.Since(t.epoch)
	id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
	t.mu.Lock()
	t.spans = append(t.spans, handlerSpan{id: id, start: start, end: end})
	t.mu.Unlock()
}

// tracedObject times every Update and PartialScan the server makes,
// aggregated per op type (a call does not know which request made it).
type tracedObject struct {
	snapshot.Object[int64]
	epoch        time.Time
	mu           sync.Mutex
	update, scan []objSpan
}

type objSpan struct{ start, dur time.Duration }

func (o *tracedObject) Update(ids []int, vals []int64) error {
	t0 := time.Now()
	err := o.Object.Update(ids, vals)
	o.record(&o.update, t0)
	return err
}

func (o *tracedObject) PartialScan(ids []int) ([]int64, error) {
	t0 := time.Now()
	vals, err := o.Object.PartialScan(ids)
	o.record(&o.scan, t0)
	return vals, err
}

func (o *tracedObject) record(spans *[]objSpan, t0 time.Time) {
	dur := time.Since(t0)
	o.mu.Lock()
	*spans = append(*spans, objSpan{start: t0.Sub(o.epoch), dur: dur})
	o.mu.Unlock()
}

// serveSetup is everything serve-mixed builds before its first measured
// request: the inputs, the object and server, and open connections.
type serveSetup struct {
	conns    []*loadConn
	epoch    time.Time // every span is timed against it
	th       *tracedHandler
	to       *tracedObject
	heapBase float64
	obj      snapshot.Object[int64]
	srv      *server.Server
	hst      *host
}

// setUpServe builds serve-mixed from nothing up to its first healthy
// request. A probe builds only that; otherwise the connections also get
// their span buffers (and a traced run its decorators), and the live-heap
// baseline is taken after them and before the program's objects.
func setUpServe(cfg config, probe bool) (*serveSetup, error) {
	shape := serveMixed
	shape.Seed = cfg.seed
	gen, err := workload.New(shape)
	if err != nil {
		return nil, err
	}
	seeds := rand.New(rand.NewSource(cfg.seed))
	s := &serveSetup{conns: make([]*loadConn, loadWorkers), epoch: time.Now()}
	scheduled := 0
	for i := range s.conns {
		sched := poissonSchedule(seeds.Int63(), cfg.rate/loadWorkers, warmup+cfg.window)
		s.conns[i] = &loadConn{idx: i, schedule: sched, stream: gen.Stream(i)}
		scheduled += len(sched)
	}
	if !probe {
		for _, c := range s.conns {
			c.spans = make([]reqSpan, len(c.schedule))
		}
		if cfg.traced {
			s.th = &tracedHandler{epoch: s.epoch, spans: make([]handlerSpan, 0, scheduled+16)}
			s.to = &tracedObject{epoch: s.epoch, update: make([]objSpan, 0, scheduled), scan: make([]objSpan, 0, scheduled)}
		}
		s.heapBase = liveHeap()
	}

	if s.obj, err = newObject(); err != nil {
		return nil, err
	}
	served := s.obj
	if s.to != nil {
		s.to.Object = s.obj
		served = s.to
	}
	s.srv = server.New(served, snapshot.ImplLockFree, server.Config{})
	h := s.srv.Handler()
	if s.th != nil {
		s.th.next = h
		h = s.th
	}
	if s.hst, err = startHost(h); err != nil {
		return nil, err
	}
	for _, c := range s.conns {
		if c.cl, err = dial(s.hst.addr()); err != nil {
			s.close()
			return nil, err
		}
	}
	status, _, err := s.conns[0].cl.do("/healthz", 0, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/healthz returned %d", status)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close hangs up the connections and stops the server.
func (s *serveSetup) close() {
	for _, c := range s.conns {
		if c.cl != nil {
			c.cl.conn.Close()
		}
	}
	// Serve can only fail here if the listener broke mid-run, which the
	// window's own checks have already reported.
	_ = s.hst.close()
}

func setupServe(cfg config) error {
	s, err := setUpServe(cfg, true)
	if err == nil {
		s.close()
	}
	return err
}

func runServe(cfg config) (*window, error) {
	s, err := setUpServe(cfg, false)
	if err != nil {
		return nil, err
	}
	defer s.close()
	conns, epoch, th, to := s.conns, s.epoch, s.th, s.to

	begin := time.Since(epoch)
	measureFrom := begin + warmup
	var wg sync.WaitGroup
	for _, c := range conns {
		for i := range c.schedule {
			c.schedule[i] += begin
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(epoch, cfg.traced)
		}()
	}
	sliceLen := cfg.window / slices
	marks := make([]runtimeMark, slices+1)
	var heap *heapWatch
	for i := range marks {
		time.Sleep(time.Until(epoch.Add(measureFrom + time.Duration(i)*sliceLen)))
		marks[i] = markRuntime()
		if i == 0 {
			heap = watchHeap()
		}
	}
	win := &window{heapGrowth: heap.growth(s.heapBase), slices: make([]slice, slices)}
	wg.Wait()

	_, win.rt = marks[slices].since(marks[0])
	for i := range win.slices {
		win.slices[i].dur = sliceLen
		win.slices[i].cpu, _ = marks[i+1].since(marks[i])
	}
	for _, c := range conns {
		if c.err != nil {
			win.problems = append(win.problems, fmt.Sprintf("connection %d: %v", c.idx, c.err))
		}
		win.problems = append(win.problems, c.problems...)
		for _, sp := range c.spans {
			win.attempted++
			if sp.status != http.StatusOK {
				win.failed++
				continue
			}
			if sp.kind == workload.OpScan {
				win.scans++
			} else {
				win.updates++
			}
			if sp.due < measureFrom {
				continue
			}
			sl := &win.slices[min(int((sp.due-measureFrom)/sliceLen), slices-1)]
			sl.ops++
			lat := us(sp.recv - sp.due)
			if sp.kind == workload.OpScan {
				sl.scan = append(sl.scan, lat)
				win.scan = append(win.scan, lat)
			} else {
				sl.update = append(sl.update, lat)
				win.update = append(win.update, lat)
			}
		}
	}

	stats, err := fetchStats(s.hst.addr())
	if err != nil {
		return nil, err
	}
	checkStart := time.Now()
	conf, confErr := s.srv.Conformance()
	checkTime := time.Since(checkStart)
	if confErr != nil {
		win.problems = append(win.problems, confErr.Error())
	}
	if win.objStats, err = objectStats(s.obj); err != nil {
		return nil, err
	}
	if v, ok := win.objStats["live_announcements"]; ok && v != 0 {
		win.problems = append(win.problems, fmt.Sprintf("%v announcements still live after the window", v))
	}
	if v := stats["internal_errors"]; v != 0 {
		win.problems = append(win.problems, fmt.Sprintf("server counted %v internal errors", v))
	}

	if cfg.traced {
		win.layers, win.absent = serveLayers(conns, th, to, stats, measureFrom, cfg.sampleCost)
		win.layers["spec.check_ms"] = checkTime.Seconds() * 1e3
		win.layers["spec.checked_ops"] = float64(conf.CheckedOps)
		win.spans = func(out io.Writer) error { return writeServeSpans(out, conns, th, to) }
	}
	return win, nil
}

// fetchStats reads GET /stats as untyped JSON over a fresh connection.
func fetchStats(addr string) (map[string]float64, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.conn.Close()
	status, body, err := c.do("/stats", 0, nil)
	if err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /stats returned %d", status)
	}
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return numericJSON(fields)
}

// serveLayers breaks serve-mixed's measured requests down by layer. A
// request's latency from its due time is its queueing at the client, the
// round trip outside the handler (net), the handler's own work (server
// self) and the object calls it made; the residual is what those parts,
// each summed over its own spans, leave of the summed latency.
func serveLayers(conns []*loadConn, th *tracedHandler, to *tracedObject, stats map[string]float64, measureFrom, sampleCost time.Duration) (map[string]float64, []string) {
	out := map[string]float64{}
	handled := make(map[uint64]time.Duration, len(th.spans))
	for _, s := range th.spans {
		if s.id != 0 {
			handled[s.id] = s.end - s.start
		}
	}
	var queue, rtt, netOver, srvUpd, srvScn []float64
	var lagMax, sumLat, sumQueue, sumNet, sumHandler, sumNext float64
	var matched, nexts float64
	for _, c := range conns {
		for i, s := range c.spans {
			if s.due < measureFrom || s.status != http.StatusOK {
				continue
			}
			if s.wake != 0 {
				lagMax = max(lagMax, us(s.wake-s.due))
			}
			sumNext += float64(s.next - sampleCost)
			nexts++
			q, r := us(s.sent-s.due), us(s.recv-s.sent)
			queue, rtt = append(queue, q), append(rtt, r)
			sumLat += us(s.recv - s.due)
			sumQueue += q
			hd, ok := handled[reqID(c.idx, i)]
			if !ok {
				continue
			}
			matched++
			n := r - us(hd)
			netOver = append(netOver, n)
			sumNet += n
			sumHandler += us(hd)
			if s.kind == workload.OpScan {
				srvScn = append(srvScn, us(hd))
			} else {
				srvUpd = append(srvUpd, us(hd))
			}
		}
	}
	var objUpd, objScn []float64
	sumObj := 0.0
	for _, sp := range []struct {
		spans []objSpan
		into  *[]float64
	}{{to.update, &objUpd}, {to.scan, &objScn}} {
		for _, s := range sp.spans {
			if s.start >= measureFrom {
				*sp.into = append(*sp.into, us(s.dur))
				sumObj += us(s.dur)
			}
		}
	}
	tail := func(prefix string, xs []float64) {
		s := sorted(xs)
		out[prefix+".p50"] = median(s)
		out[prefix+".p99"] = p99(s)
	}
	tail("client.queue_us", queue)
	tail("client.rtt_us", rtt)
	out["client.lag_us.max"] = lagMax
	out["net.overhead_us.p50"] = median(netOver)
	tail("server.update_us", srvUpd)
	tail("server.scan_us", srvScn)
	tail("snapshot.update_us", objUpd)
	tail("snapshot.scan_us", objScn)
	self := sumHandler - sumObj
	out["server.self_us.mean"] = ratio(self, matched)
	out["trace.residual_frac"] = residual(sumLat, sumQueue, sumNet, self, sumObj)
	out["workload.next_ns"] = ratio(sumNext, nexts)

	var absent []string
	counter := func(metric string, keys ...string) []float64 {
		var vs []float64
		for _, k := range keys {
			v, ok := stats[k]
			if !ok {
				absent = append(absent, metric)
				return nil
			}
			vs = append(vs, v)
		}
		return vs
	}
	if v := counter("server.cache_hit_frac", "cache_hits", "cache_misses"); v != nil {
		out["server.cache_hit_frac"] = ratio(v[0], v[0]+v[1])
	}
	for metric, key := range map[string]string{
		"server.recorded_ops":     "recorded_ops",
		"server.recording_closed": "recording_closed",
		"server.rejected":         "rejected",
		"server.internal_errors":  "internal_errors",
	} {
		if v := counter(metric, key); v != nil {
			out[metric] = v[0]
		}
	}
	return out, absent
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func writeServeSpans(out io.Writer, conns []*loadConn, th *tracedHandler, to *tracedObject) error {
	bw := bufio.NewWriter(out)
	kinds := map[workload.Kind]string{workload.OpUpdate: "update", workload.OpScan: "scan"}
	for _, c := range conns {
		for i, s := range c.spans {
			if s.status == 0 {
				continue
			}
			fmt.Fprintf(bw, `{"layer":"client","id":%d,"op":%q,"due_ns":%d,"sent_ns":%d,"end_ns":%d,"status":%d}`+"\n",
				reqID(c.idx, i), kinds[s.kind], s.due, s.sent, s.recv, s.status)
		}
	}
	for _, s := range th.spans {
		fmt.Fprintf(bw, `{"layer":"server","id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n", s.id, s.id, s.start, s.end)
	}
	for op, spans := range map[string][]objSpan{"update": to.update, "scan": to.scan} {
		var total time.Duration
		for _, s := range spans {
			total += s.dur
		}
		fmt.Fprintf(bw, `{"layer":"snapshot","op":%q,"calls":%d,"total_ns":%d}`+"\n", op, len(spans), total)
	}
	return bw.Flush()
}
