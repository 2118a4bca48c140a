// Package server is snapshotd's serving layer: an HTTP/JSON front end over
// any snapshot.Object[int64] built by snapshot.New — in production the
// paper's wait-free LockFree object, whose per-component announcement
// registry is the paper's disjoint-access argument (requests naming
// disjoint component sets share no registers, no registry slots and no
// help obligations, end to end from the HTTP handler down to the object).
//
// Endpoints:
//
//	POST /update      {"ids":[...],"vals":[...]} or {"ops":[{...},{...}]}
//	POST /scan        {"ids":[...]} or {"all":true}
//	GET  /stats       server + object counters
//	GET  /conformance the conformance verdict over the whole run so far
//	GET  /healthz     liveness
//
// Errors carry a machine-readable code from the snapshot package's wire
// taxonomy: bad ids are HTTP 400 {"code":"bad_component"}, malformed
// requests HTTP 400 {"code":"bad_request"} (413 for a body over 1 MiB);
// anything else is a 500 {"code":"internal"}. The object's component
// count is fixed when it is built; no endpoint resizes it.
//
// Requests pass straight through to the object: the server keeps no state
// per component, so a request costs only what the object charges for the
// components it names. Update and scan bodies go through a small
// hand-written codec (codec.go) that reads each body into a pooled buffer,
// parses it into pooled slices and appends the reply into a pooled buffer,
// with the wire format encoding/json gives the exported wire types. A scan
// appends its view to the request's pooled value slice (AppendScan).
//
// Conformance oracle. Every operation the server applies is fed, as it
// begins and as it ends, to an online spec.Checker: the same atomic-cut
// check spec.Check runs, over the whole run, with each scan convicted as
// soon as every operation that began before it ended has completed. Begin
// and end timestamps are drawn under one mutex, so the checker sees them
// in order. The checker holds only the operations still in flight and the
// writes they may need, and that window stays short: an operation begins
// after its body is decoded and ends right after the object call, which
// is wait-free. GET /conformance (and the snapshotd shutdown hook)
// settles the operations in flight and reports the first violation, if
// any, with the number of operations checked.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/spec"
)

// Config configures a Server. It has no fields; the repository benchmark
// (perfbench) compiles against New's signature.
type Config struct{}

// Server serves one snapshot object over HTTP.
type Server struct {
	obj  snapshot.Object[int64]
	impl snapshot.Impl
	conf *conformance

	requests       atomic.Uint64
	badRequests    atomic.Uint64
	rejected       atomic.Uint64
	internal       atomic.Uint64
	updates        atomic.Uint64
	updatesApplied atomic.Uint64
	scans          atomic.Uint64
}

// New builds a server over obj. impl is the snapshot.Impl name obj was
// built with, reported by /stats.
func New(obj snapshot.Object[int64], impl snapshot.Impl, _ Config) *Server {
	return &Server{obj: obj, impl: impl, conf: &conformance{chk: spec.NewChecker[int64](obj.Components())}}
}

// Handler returns the server's mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/scan", s.handleScan)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/conformance", s.handleConformance)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// ---- wire types ----
//
// The request and reply bodies below are the wire schema. The handlers
// read and write them through the codec in codec.go, not through
// reflection; codec_test.go pins the two to the same bytes.

// UpdateReq is POST /update's body: either one update (ids/vals) or a
// batch (ops) — the per-connection batching surface, one round trip for a
// train of updates. Each op is individually linearizable; the batch as a
// whole is not atomic (the same contract as Object.Update).
type UpdateReq struct {
	IDs  []int    `json:"ids,omitempty"`
	Vals []int64  `json:"vals,omitempty"`
	Ops  []OneOp  `json:"ops,omitempty"`
	_    struct{} // keep the zero value distinguishable in tests
}

// OneOp is one update of a batch.
type OneOp struct {
	IDs  []int   `json:"ids"`
	Vals []int64 `json:"vals"`
}

// UpdateResp acknowledges how many updates of the request were applied.
type UpdateResp struct {
	Applied int `json:"applied"`
}

// ScanReq is POST /scan's body: the component ids to read, or all=true for
// a full snapshot.
type ScanReq struct {
	IDs []int `json:"ids,omitempty"`
	All bool  `json:"all,omitempty"`
}

// ScanResp carries an atomic view of the requested components.
type ScanResp struct {
	IDs  []int   `json:"ids"`
	Vals []int64 `json:"vals"`
}

// ErrorResp is every non-2xx body: a human-readable error plus the stable
// machine code (snapshot.CodeBadComponent, "bad_request", "internal").
type ErrorResp struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// StatsResp is GET /stats's body.
type StatsResp struct {
	Impl       string `json:"impl"`
	Components int    `json:"components"`

	Requests       uint64 `json:"requests"`
	UpdateReqs     uint64 `json:"update_reqs"`
	UpdatesApplied uint64 `json:"update_ops"`
	Scans          uint64 `json:"scans"`
	BadRequests    uint64 `json:"bad_requests"`
	Rejected       uint64 `json:"rejected"`
	Internal       uint64 `json:"internal_errors"`

	// CacheHits and CacheMisses always read 0: the server has no cache,
	// but the repository benchmark (perfbench) reads both keys.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`

	// RecordedOps counts the operations fed to the conformance checker.
	// RecordingClosed always reads false: the whole run is checked, but
	// perfbench reads the key.
	RecordedOps     int             `json:"recorded_ops"`
	RecordingClosed bool            `json:"recording_closed"`
	ObjectStats     *snapshot.Stats `json:"object_stats,omitempty"`
}

// ConformanceResp is GET /conformance's body on success: how many
// operations passed the check, and how many were still in the checker's
// window (begun after the request, or waiting on one that was).
type ConformanceResp struct {
	CheckedOps int  `json:"checked_ops"`
	PendingOps int  `json:"pending_ops"`
	Components int  `json:"initial_components"`
	OK         bool `json:"ok"`
}

// ---- handlers ----

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q, ok := s.decode(w, r, updateFields)
	if !ok {
		return
	}
	defer putRequest(q)
	if len(q.ops) == 0 {
		if q.ids.lo == q.ids.hi {
			s.fail(w, q, http.StatusBadRequest, "bad_request", errors.New("update: ids or ops required"))
			return
		}
		q.ops = append(q.ops, opSpan{q.ids, q.val})
	} else if q.ids.lo != q.ids.hi {
		s.fail(w, q, http.StatusBadRequest, "bad_request", errors.New("update: ids and ops are mutually exclusive"))
		return
	}
	applied := 0
	for _, op := range q.ops {
		if err := s.applyUpdate(q.idList(op.ids), q.valList(op.vals)); err != nil {
			// Batch semantics: earlier ops of the batch stay applied (each
			// is individually linearizable); the response reports how far
			// the batch got beside the error.
			s.failApplied(w, q, err, applied)
			return
		}
		applied++
	}
	s.updates.Add(1)
	q.out = appendCount(q.out, "applied", applied)
	send(w, http.StatusOK, q.out)
}

// applyUpdate runs one update through the object and the conformance
// checker.
func (s *Server) applyUpdate(ids []int, vals []int64) error {
	t := s.conf.begin()
	if err := s.obj.Update(ids, vals); err != nil {
		s.conf.abort(t)
		return err
	}
	s.conf.end(t, spec.Op[int64]{Kind: spec.Update, Comps: ids, Vals: vals})
	s.updatesApplied.Add(1)
	return nil
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q, ok := s.decode(w, r, scanFields)
	if !ok {
		return
	}
	defer putRequest(q)
	ids := q.idList(q.ids)
	if q.all && len(ids) != 0 {
		s.fail(w, q, http.StatusBadRequest, "bad_request", errors.New("scan: ids and all are mutually exclusive"))
		return
	}
	if !q.all && len(ids) == 0 {
		s.fail(w, q, http.StatusBadRequest, "bad_request", errors.New("scan: ids or all required"))
		return
	}

	if q.all {
		for i := range s.obj.Components() {
			q.ints = append(q.ints, i)
		}
		ids = q.ints
	}
	t := s.conf.begin()
	var err error
	if q.vals, err = s.obj.AppendScan(q.vals[:0], ids); err != nil {
		s.conf.abort(t)
		s.failApplied(w, q, err, 0)
		return
	}
	s.conf.end(t, spec.Op[int64]{Kind: spec.Scan, Comps: ids, Vals: q.vals})
	s.scans.Add(1)
	q.out = appendScanResp(q.out, ids, q.vals)
	send(w, http.StatusOK, q.out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		s.fail(w, nil, http.StatusMethodNotAllowed, "bad_request", fmt.Errorf("stats: %s not allowed", r.Method))
		return
	}
	resp := StatsResp{
		Impl:           string(s.impl),
		Components:     s.obj.Components(),
		Requests:       s.requests.Load(),
		UpdateReqs:     s.updates.Load(),
		UpdatesApplied: s.updatesApplied.Load(),
		Scans:          s.scans.Load(),
		BadRequests:    s.badRequests.Load(),
		Rejected:       s.rejected.Load(),
		Internal:       s.internal.Load(),
	}
	resp.RecordedOps = s.conf.status().Recorded
	if sr, ok := s.obj.(snapshot.StatsReader); ok {
		st := sr.Stats()
		resp.ObjectStats = &st
	}
	replyJSON(w, http.StatusOK, resp)
}

func (s *Server) handleConformance(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	resp, err := s.Conformance()
	if err != nil {
		s.fail(w, nil, http.StatusInternalServerError, "conformance_failed", err)
		return
	}
	replyJSON(w, http.StatusOK, resp)
}

// Conformance reports the conformance checker's verdict over the run so
// far. It first waits (bounded) until every operation begun before the
// call has ended, so each scan that completed before the call has been
// checked against every write it could have observed.
func (s *Server) Conformance() (ConformanceResp, error) {
	st, settled, err := s.conf.settle(5 * time.Second)
	if err != nil {
		return ConformanceResp{}, fmt.Errorf("conformance: spec rejected the history after %d checked ops: %w", st.Checked, err)
	}
	if !settled {
		return ConformanceResp{}, errors.New("conformance: operations still in flight")
	}
	return ConformanceResp{CheckedOps: st.Checked, PendingOps: st.Pending, Components: s.obj.Components(), OK: true}, nil
}

// ---- plumbing ----

// decode reads and parses a POST body that may carry the given fields. On
// failure it has already replied; on success the caller owns q and hands
// it back with putRequest.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, allowed field) (*request, bool) {
	if r.Method != http.MethodPost {
		s.fail(w, nil, http.StatusMethodNotAllowed, "bad_request", fmt.Errorf("%s not allowed", r.Method))
		return nil, false
	}
	q := getRequest()
	var err error
	if r.ContentLength > maxBodyBytes {
		err = errBodyTooLarge
	} else if err = q.read(r.Body); err == nil {
		// The body is read to EOF. Closing it here tells net/http so;
		// left open, it would run its own discard of the rest after the
		// reply, at the cost of an allocation per request.
		_ = r.Body.Close()
		err = q.decode(allowed)
	}
	if err != nil {
		status := http.StatusBadRequest
		if err == errBodyTooLarge {
			// The rest of the body stays unread: close the connection
			// instead of reading past it to the next request.
			status = http.StatusRequestEntityTooLarge
			w.Header().Set("Connection", "close")
		}
		s.fail(w, q, status, "bad_request", fmt.Errorf("bad request body: %w", err))
		putRequest(q)
		return nil, false
	}
	return q, true
}

// failApplied maps an Object error to its HTTP status via the snapshot
// wire taxonomy; applied (>0 only for batches) reports partial progress.
func (s *Server) failApplied(w http.ResponseWriter, q *request, err error, applied int) {
	switch snapshot.ErrorCode(err) {
	case snapshot.CodeBadComponent:
		s.rejected.Add(1)
		s.failBody(w, q, http.StatusBadRequest, snapshot.CodeBadComponent, err, applied)
	default:
		s.internal.Add(1)
		s.failBody(w, q, http.StatusInternalServerError, "internal", err, applied)
	}
}

// fail replies with a request-level error: client errors (4xx) count as
// bad requests, anything else as internal.
func (s *Server) fail(w http.ResponseWriter, q *request, status int, code string, err error) {
	if status < http.StatusInternalServerError {
		s.badRequests.Add(1)
	} else {
		s.internal.Add(1)
	}
	s.failBody(w, q, status, code, err, 0)
}

// failBody writes an ErrorResp, into q's reply buffer when there is one.
func (s *Server) failBody(w http.ResponseWriter, q *request, status int, code string, err error, applied int) {
	if q == nil {
		send(w, status, appendError(nil, err.Error(), code, applied))
		return
	}
	q.out = appendError(q.out, err.Error(), code, applied)
	send(w, status, q.out)
}

// replyJSON writes body with encoding/json: the endpoints off the request
// path (stats, conformance).
func replyJSON(w http.ResponseWriter, status int, body any) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// conformance feeds every applied operation to the online checker. Its
// mutex orders the logical clock: Start and End are drawn under it, so the
// checker receives begins in start order and ends in end order.
type conformance struct {
	mu    sync.Mutex
	clock int64
	chk   *spec.Checker[int64]
}

// begin stamps an operation's Start; it is called right before the object
// call.
func (c *conformance) begin() spec.Ticket {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	return c.chk.Begin(c.clock)
}

// end stamps an applied operation's End and feeds it to the checker,
// which copies what it keeps of op's slices.
func (c *conformance) end(t spec.Ticket, op spec.Op[int64]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	op.End = c.clock
	c.chk.End(t, op)
}

// abort withdraws an operation the object rejected: rejected operations
// are tolerated traffic, not history.
func (c *conformance) abort(t spec.Ticket) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chk.Abort(t)
}

func (c *conformance) status() spec.CheckerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chk.Status()
}

// settle waits, up to timeout, until every operation begun before the call
// has ended (settled), and returns the checker's status and verdict.
func (c *conformance) settle(timeout time.Duration) (st spec.CheckerStatus, settled bool, err error) {
	deadline := time.Now().Add(timeout)
	target := c.status().Begun
	for {
		c.mu.Lock()
		st, err = c.chk.Status(), c.chk.Err()
		c.mu.Unlock()
		settled = st.Ended >= target
		if settled || err != nil || time.Now().After(deadline) {
			return st, settled, err
		}
		time.Sleep(time.Millisecond)
	}
}
