// Package server is snapshotd's serving layer: an HTTP/JSON front end over
// any snapshot.Object[int64] built by snapshot.New — in production the
// Sharded store, whose per-shard locality is the paper's disjoint-access
// argument at service scale (requests naming components of one shard touch
// only that shard's memory, end to end from the HTTP handler down to the
// registers).
//
// Endpoints:
//
//	POST /update      {"ids":[...],"vals":[...]} or {"ops":[{...},{...}]}
//	POST /scan        {"ids":[...]} or {"all":true}
//	POST /grow        {"delta":k}
//	POST /shrink      {"delta":k}
//	GET  /stats       server + object counters
//	GET  /conformance run spec.Check over the recorded traffic prefix
//	GET  /healthz     liveness
//
// Errors carry a machine-readable code from the snapshot package's wire
// taxonomy: bad ids are HTTP 400 {"code":"bad_component"}, infeasible
// resizes HTTP 409 {"code":"bad_resize"}, malformed requests HTTP 400
// {"code":"bad_request"} (413 for a body over 1 MiB); anything else is a
// 500 {"code":"internal"}.
//
// Requests pass straight through to the object: the server keeps no state
// per component, so a request costs only what the object charges for the
// components it names. Update, scan and resize bodies go through a small
// hand-written codec (codec.go) that reads each body into a pooled buffer,
// parses it into pooled slices and appends the reply into a pooled buffer,
// with the wire format encoding/json gives the exported wire types.
//
// Conformance oracle. The server records a complete prefix of its traffic
// through spec.Recorder: every operation is recorded until the admission
// cap, after which writes keep recording for exactly as long as a recorded
// scan is still in flight (a scan can only observe a write that completed
// before the scan's own response, so once the last recorded scan has
// finished, later writes are unobservable by the history and recording
// closes). The recorded history therefore explains every value any
// recorded scan can have seen, so a serving bug that answers a scan with
// a superseded value is convicted, not hidden. GET /conformance (and the
// snapshotd shutdown hook) runs spec.Check over the prefix: the sequential
// spec as the service's conformance oracle. Only recorded operations copy
// their ids and values out of the pooled request buffers.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/spec"
)

// Config sizes a Server.
type Config struct {
	// MaxRecordedOps is the conformance recording admission cap (<=0 =
	// DefaultMaxRecordedOps). Recording self-closes shortly after the cap:
	// see the package comment.
	MaxRecordedOps int
}

// DefaultMaxRecordedOps is the conformance prefix admission cap.
const DefaultMaxRecordedOps = 32768

// Server serves one snapshot object over HTTP.
type Server struct {
	obj  snapshot.Object[int64]
	impl snapshot.Impl
	conf *conformance

	requests    atomic.Uint64
	badRequests atomic.Uint64
	rejected    atomic.Uint64
	resizeBusy  atomic.Uint64
	internal    atomic.Uint64
	updates     atomic.Uint64
	updateOps   atomic.Uint64
	scans       atomic.Uint64
	resizes     atomic.Uint64
}

// New builds a server over obj. impl is the snapshot.Impl name obj was
// built with, reported by /stats.
func New(obj snapshot.Object[int64], impl snapshot.Impl, cfg Config) *Server {
	if cfg.MaxRecordedOps <= 0 {
		cfg.MaxRecordedOps = DefaultMaxRecordedOps
	}
	return &Server{obj: obj, impl: impl,
		conf: &conformance{cap: int64(cfg.MaxRecordedOps), initial: obj.Components()}}
}

// Handler returns the server's mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/scan", s.handleScan)
	mux.HandleFunc("/grow", s.handleResize(true))
	mux.HandleFunc("/shrink", s.handleResize(false))
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

// ResizeReq is POST /grow's and /shrink's body.
type ResizeReq struct {
	Delta int `json:"delta"`
}

// ResizeResp reports the component count after the resize.
type ResizeResp struct {
	Components int `json:"components"`
}

// ErrorResp is every non-2xx body: a human-readable error plus the stable
// machine code (snapshot.CodeBadComponent, snapshot.CodeBadResize,
// "bad_request", "internal").
type ErrorResp struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// StatsResp is GET /stats's body.
type StatsResp struct {
	Impl       string `json:"impl"`
	Components int    `json:"components"`
	Shards     int    `json:"shards,omitempty"`

	Requests    uint64 `json:"requests"`
	UpdateReqs  uint64 `json:"update_reqs"`
	UpdateOps   uint64 `json:"update_ops"`
	Scans       uint64 `json:"scans"`
	Resizes     uint64 `json:"resizes"`
	BadRequests uint64 `json:"bad_requests"`
	Rejected    uint64 `json:"rejected"`
	ResizeBusy  uint64 `json:"resize_busy"`
	Internal    uint64 `json:"internal_errors"`

	// CacheHits and CacheMisses always read 0: the server has no cache,
	// but the repository benchmark (perfbench) reads both keys.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`

	RecordedOps     int             `json:"recorded_ops"`
	RecordingClosed bool            `json:"recording_closed"`
	ObjectStats     *snapshot.Stats `json:"object_stats,omitempty"`
}

// ConformanceResp is GET /conformance's body on success.
type ConformanceResp struct {
	CheckedOps      int  `json:"checked_ops"`
	Components      int  `json:"initial_components"`
	RecordingClosed bool `json:"recording_closed"`
	OK              bool `json:"ok"`
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

// applyUpdate runs one update through the conformance recorder and the
// object.
func (s *Server) applyUpdate(ids []int, vals []int64) error {
	tok := s.conf.admit(spec.Update)
	start := tok.start()
	err := s.obj.Update(ids, vals)
	if err != nil {
		tok.abort()
		return err
	}
	if tok.rec {
		tok.commit(spec.Op[int64]{Kind: spec.Update, Start: start, Comps: slices.Clone(ids), Vals: slices.Clone(vals)})
	}
	s.updateOps.Add(1)
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

	tok := s.conf.admit(spec.Scan)
	start := tok.start()
	var vals []int64
	var err error
	if q.all {
		// One full scan: its length names the components it covers.
		if vals, err = s.obj.Scan(); err == nil {
			q.ints = q.ints[:0]
			for i := range vals {
				q.ints = append(q.ints, i)
			}
			ids = q.ints
		}
	} else {
		vals, err = s.obj.PartialScan(ids)
	}
	if err != nil {
		tok.abort()
		s.failApplied(w, q, err, 0)
		return
	}
	if tok.rec {
		tok.commit(spec.Op[int64]{Kind: spec.Scan, Start: start, Comps: slices.Clone(ids), Vals: vals})
	}
	s.scans.Add(1)
	q.out = appendScanResp(q.out, ids, vals)
	send(w, http.StatusOK, q.out)
}

func (s *Server) handleResize(grow bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		q, ok := s.decode(w, r, resizeFields)
		if !ok {
			return
		}
		defer putRequest(q)
		kind, apply := spec.Shrink, s.obj.Shrink
		if grow {
			kind, apply = spec.Grow, s.obj.Grow
		}
		tok := s.conf.admit(kind)
		start := tok.start()
		n, err := apply(q.delta)
		if err != nil {
			tok.abort()
			s.failApplied(w, q, err, 0)
			return
		}
		tok.commit(spec.Op[int64]{Kind: kind, Start: start, Delta: q.delta, Size: n})
		s.resizes.Add(1)
		q.out = appendCount(q.out, "components", n)
		send(w, http.StatusOK, q.out)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		s.fail(w, nil, http.StatusMethodNotAllowed, "bad_request", fmt.Errorf("stats: %s not allowed", r.Method))
		return
	}
	resp := StatsResp{
		Impl:        string(s.impl),
		Components:  s.obj.Components(),
		Requests:    s.requests.Load(),
		UpdateReqs:  s.updates.Load(),
		UpdateOps:   s.updateOps.Load(),
		Scans:       s.scans.Load(),
		Resizes:     s.resizes.Load(),
		BadRequests: s.badRequests.Load(),
		Rejected:    s.rejected.Load(),
		ResizeBusy:  s.resizeBusy.Load(),
		Internal:    s.internal.Load(),
	}
	resp.RecordedOps, resp.RecordingClosed = s.conf.status()
	if sh, ok := s.obj.(*snapshot.Sharded[int64]); ok {
		resp.Shards = sh.NumShards()
	}
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

// Conformance runs spec.Check over the recorded traffic prefix. It first
// waits (bounded) for in-flight recorded operations to commit, so the
// history it checks is causally complete — a recorded scan is never
// checked before the write it observed is in the history.
func (s *Server) Conformance() (ConformanceResp, error) {
	if !s.conf.settle(5 * time.Second) {
		return ConformanceResp{}, errors.New("conformance: recorded operations still in flight")
	}
	ops := s.conf.rec.Ops()
	if err := spec.Check(s.conf.initial, ops); err != nil {
		return ConformanceResp{}, fmt.Errorf("conformance: history of %d recorded ops rejected by spec: %w", len(ops), err)
	}
	_, closed := s.conf.status()
	return ConformanceResp{CheckedOps: len(ops), Components: s.conf.initial, RecordingClosed: closed, OK: true}, nil
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
	err := q.read(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = q.decode(allowed)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
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
	case snapshot.CodeBadResize:
		s.resizeBusy.Add(1)
		s.failBody(w, q, http.StatusConflict, snapshot.CodeBadResize, err, applied)
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

// conformance is the bounded-prefix recorder: every operation records
// until the admission cap; past it, writes keep recording exactly while a
// recorded scan is in flight (see the package comment for the soundness
// argument), then recording closes for good.
type conformance struct {
	rec     spec.Recorder[int64]
	cap     int64
	initial int

	mu            sync.Mutex
	admitted      int64
	scansInFlight int
	opsInFlight   int
	closed        bool
}

// confToken carries one admitted operation from admission to commit.
// A zero/nil-conf token (past-close admission) is inert.
type confToken struct {
	c    *conformance
	kind spec.Kind
	rec  bool
}

// admit decides, under the prefix protocol, whether this operation is part
// of the recorded history.
func (c *conformance) admit(kind spec.Kind) confToken {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return confToken{}
	}
	c.admitted++
	if c.admitted <= c.cap {
		if kind == spec.Scan {
			c.scansInFlight++
		}
		c.opsInFlight++
		return confToken{c: c, kind: kind, rec: true}
	}
	if kind != spec.Scan && c.scansInFlight > 0 {
		// Drain: a recorded scan may still observe this write.
		c.opsInFlight++
		return confToken{c: c, kind: kind, rec: true}
	}
	if c.scansInFlight == 0 {
		c.closed = true
	}
	return confToken{}
}

// start draws the op's Start timestamp (0 for unrecorded ops — the zero
// Op is never Added).
func (t confToken) start() int64 {
	if !t.rec {
		return 0
	}
	return t.c.rec.Now()
}

// commit stamps End and adds the op to the history.
func (t confToken) commit(op spec.Op[int64]) {
	if !t.rec {
		return
	}
	op.End = t.c.rec.Now()
	t.c.rec.Add(op)
	t.c.release(t.kind)
}

// abort releases an admitted op that failed (rejected operations are
// tolerated traffic, not history).
func (t confToken) abort() {
	if !t.rec {
		return
	}
	t.c.release(t.kind)
}

func (c *conformance) release(kind spec.Kind) {
	c.mu.Lock()
	if kind == spec.Scan {
		c.scansInFlight--
		if c.admitted > c.cap && c.scansInFlight == 0 {
			c.closed = true
		}
	}
	c.opsInFlight--
	c.mu.Unlock()
}

// status reports the recorded op count and whether recording has closed.
func (c *conformance) status() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.rec.Ops()), c.closed
}

// settle waits until no recorded operation is in flight, so a conformance
// check never misses a write one of its scans observed.
func (c *conformance) settle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		inflight := c.opsInFlight
		c.mu.Unlock()
		if inflight == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
