package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// The request path's JSON codec. Update, scan and resize bodies are read
// into a pooled buffer and parsed into pooled slices; replies are appended
// into a pooled buffer. The wire format is the one encoding/json gives the
// exported wire types (UpdateReq, ScanReq, ResizeReq and their replies),
// byte for byte: codec_test.go pins both directions against encoding/json.
//
// The parser only accepts the plain form of each body: exact lower-case
// keys without escapes, each at most once, integers without fraction or
// exponent, no nulls. Anything else is handed to encoding/json with
// unknown fields disallowed, so an unusual but valid body still decodes
// and a malformed one is rejected with encoding/json's own error. As with
// json.Decoder, bytes after the top-level object are ignored.

// Size limits on a request body. Bodies are cut at maxBodyBytes
// (413 bad_request), and a body naming more than maxListLen ids or batched
// ops is a 400 bad_request. Pooled buffers that grew past the pooling
// limits are dropped rather than kept for the next request.
const (
	maxBodyBytes   = 1 << 20
	maxListLen     = 1 << 14
	maxPooledBytes = 64 << 10
	maxPooledLen   = 4096
)

var errTooLong = fmt.Errorf("request has a list longer than %d", maxListLen)

// field names a key of a request body; a bit set of fields is the keys a
// body may carry.
type field uint8

const (
	fIDs field = 1 << iota
	fVals
	fOps
	fAll
	fDelta
)

// The fields each endpoint's body may carry.
const (
	updateFields = fIDs | fVals | fOps
	scanFields   = fIDs | fAll
	resizeFields = fDelta
)

// span is the half-open range [lo, hi) of request.ints or request.vals
// one list decoded into.
type span struct{ lo, hi int }

// opSpan is one update of a batch.
type opSpan struct{ ids, vals span }

// request is one decoded request body together with the buffers it was
// decoded from and its reply is encoded into; it lives from the handler's
// entry to its reply and then goes back to the pool.
type request struct {
	body  []byte
	ints  []int   // every decoded id, in body order
	vals  []int64 // every decoded value, in body order
	ids   span    // top-level "ids"
	val   span    // top-level "vals"
	ops   []opSpan
	all   bool
	delta int
	out   []byte
}

var requestPool = sync.Pool{New: func() any {
	return &request{body: make([]byte, 0, 512), out: make([]byte, 0, 512)}
}}

// getRequest takes an empty request from the pool.
func getRequest() *request {
	q := requestPool.Get().(*request)
	q.reset()
	return q
}

func putRequest(q *request) {
	if cap(q.body) > maxPooledBytes || cap(q.out) > maxPooledBytes ||
		cap(q.ints) > maxPooledLen || cap(q.vals) > maxPooledLen || cap(q.ops) > maxPooledLen {
		return
	}
	requestPool.Put(q)
}

func (q *request) reset() {
	q.body, q.ints, q.vals, q.ops, q.out = q.body[:0], q.ints[:0], q.vals[:0], q.ops[:0], q.out[:0]
	q.ids, q.val, q.all, q.delta = span{}, span{}, false, 0
}

func (q *request) idList(s span) []int    { return q.ints[s.lo:s.hi] }
func (q *request) valList(s span) []int64 { return q.vals[s.lo:s.hi] }

// read fills q.body from r, which the caller has already limited.
func (q *request) read(r io.Reader) error {
	b := q.body[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			q.body = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// decode parses q.body as a body that may carry the given fields: the
// plain form directly, anything else through encoding/json.
func (q *request) decode(allowed field) error {
	p := parser{b: q.body}
	if p.object(q, allowed, &q.ids, &q.val) {
		return nil
	}
	if p.tooLong {
		return errTooLong
	}
	body := q.body
	q.reset()
	q.body = body
	return q.decodeStd(allowed)
}

// decodeStd decodes q.body with encoding/json into the wire type the
// fields belong to and copies the result into q.
func (q *request) decodeStd(allowed field) error {
	switch allowed {
	case updateFields:
		var req UpdateReq
		if err := strictDecode(q.body, &req); err != nil {
			return err
		}
		if len(req.IDs) > maxListLen || len(req.Vals) > maxListLen || len(req.Ops) > maxListLen {
			return errTooLong
		}
		q.ids, q.val = q.appendInts(req.IDs), q.appendVals(req.Vals)
		for _, op := range req.Ops {
			if len(op.IDs) > maxListLen || len(op.Vals) > maxListLen {
				return errTooLong
			}
			q.ops = append(q.ops, opSpan{q.appendInts(op.IDs), q.appendVals(op.Vals)})
		}
	case scanFields:
		var req ScanReq
		if err := strictDecode(q.body, &req); err != nil {
			return err
		}
		if len(req.IDs) > maxListLen {
			return errTooLong
		}
		q.ids, q.all = q.appendInts(req.IDs), req.All
	default:
		var req ResizeReq
		if err := strictDecode(q.body, &req); err != nil {
			return err
		}
		q.delta = req.Delta
	}
	return nil
}

// strictDecode decodes the first JSON value of body into v, rejecting
// unknown fields: the reference the parser agrees with.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (q *request) appendInts(xs []int) span {
	lo := len(q.ints)
	q.ints = append(q.ints, xs...)
	return span{lo, len(q.ints)}
}

func (q *request) appendVals(xs []int64) span {
	lo := len(q.vals)
	q.vals = append(q.vals, xs...)
	return span{lo, len(q.vals)}
}

// parser reads the plain form of a request body. Every method reports
// false on anything outside that form; tooLong marks a list cut at
// maxListLen.
type parser struct {
	b       []byte
	i       int
	tooLong bool
}

func (p *parser) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next skips white space and consumes c if it comes next.
func (p *parser) next(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses one object of the allowed fields into q; its "ids" and
// "vals" lists are recorded in *ids and *vals.
func (p *parser) object(q *request, allowed field, ids, vals *span) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	var seen field
	for {
		f := p.key()
		if f&allowed == 0 || f&seen != 0 {
			return false
		}
		seen |= f
		ok := false
		switch f {
		case fIDs:
			lo := len(q.ints)
			q.ints, ok = list(p, q.ints)
			*ids = span{lo, len(q.ints)}
		case fVals:
			lo := len(q.vals)
			q.vals, ok = list(p, q.vals)
			*vals = span{lo, len(q.vals)}
		case fOps:
			ok = p.ops(q)
		case fAll:
			q.all, ok = p.bool()
		case fDelta:
			var v int64
			v, ok = p.int()
			q.delta = int(v)
			ok = ok && int64(q.delta) == v
		}
		if !ok {
			return false
		}
		if p.next('}') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// key reads a member's key and its colon; 0 is any key but the known ones.
func (p *parser) key() field {
	if !p.next('"') {
		return 0
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' && p.b[p.i] != '\\' {
		p.i++
	}
	if p.i == len(p.b) || p.b[p.i] != '"' {
		return 0
	}
	name := p.b[start:p.i]
	p.i++
	if !p.next(':') {
		return 0
	}
	switch string(name) {
	case "ids":
		return fIDs
	case "vals":
		return fVals
	case "ops":
		return fOps
	case "all":
		return fAll
	case "delta":
		return fDelta
	}
	return 0
}

// ops parses a batch: an array of {"ids":[...],"vals":[...]} objects.
func (p *parser) ops(q *request) bool {
	if !p.next('[') {
		return false
	}
	if p.next(']') {
		return true
	}
	for {
		if len(q.ops) == maxListLen {
			p.tooLong = true
			return false
		}
		var op opSpan
		if !p.object(q, fIDs|fVals, &op.ids, &op.vals) {
			return false
		}
		q.ops = append(q.ops, op)
		if p.next(']') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// list parses an array of integers, appending them to dst.
func list[T int | int64](p *parser, dst []T) ([]T, bool) {
	if !p.next('[') {
		return dst, false
	}
	if p.next(']') {
		return dst, true
	}
	for n := 0; ; n++ {
		if n == maxListLen {
			p.tooLong = true
			return dst, false
		}
		v, ok := p.int()
		if !ok || int64(T(v)) != v {
			return dst, false
		}
		dst = append(dst, T(v))
		if p.next(']') {
			return dst, true
		}
		if !p.next(',') {
			return dst, false
		}
	}
}

// int parses an integer in JSON's grammar that fits an int64.
func (p *parser) int() (int64, bool) {
	p.skipSpace()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	var u uint64
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		d := uint64(p.b[p.i] - '0')
		if u > (1<<63-d)/10 {
			return 0, false // past the int64 range, whatever the sign
		}
		u = u*10 + d
		p.i++
	}
	switch {
	case p.i == start, p.b[start] == '0' && p.i-start > 1:
		return 0, false // no digits, or a leading zero
	case p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E'):
		return 0, false // not an integer
	case neg:
		return -int64(u), true
	case u > 1<<63-1:
		return 0, false
	}
	return int64(u), true
}

func (p *parser) bool() (bool, bool) {
	p.skipSpace()
	rest := p.b[p.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += 5
		return false, true
	}
	return false, false
}

// ---- replies ----

var contentTypeJSON = []string{"application/json"}

// send writes a JSON reply held in body.
func send(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// appendList appends xs as a JSON array (null for a nil slice).
func appendList[T int | int64](b []byte, xs []T) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendScanResp appends ScanResp{IDs: ids, Vals: vals}.
func appendScanResp(b []byte, ids []int, vals []int64) []byte {
	b = append(b, `{"ids":`...)
	b = appendList(b, ids)
	b = append(b, `,"vals":`...)
	b = appendList(b, vals)
	return append(b, "}\n"...)
}

// appendCount appends a one-member object, {"<name>":n}: UpdateResp and
// ResizeResp.
func appendCount(b []byte, name string, n int) []byte {
	b = append(b, `{"`...)
	b = append(b, name...)
	b = append(b, `":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, "}\n"...)
}

// appendError appends an ErrorResp, with the batch's applied count when
// it is nonzero.
func appendError(b []byte, msg, code string, applied int) []byte {
	b = append(b, `{"error":`...)
	b = appendString(b, msg)
	b = append(b, `,"code":`...)
	b = appendString(b, code)
	if applied != 0 {
		b = append(b, `,"applied":`...)
		b = strconv.AppendInt(b, int64(applied), 10)
	}
	return append(b, "}\n"...)
}

// appendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it (only error replies carry strings).
func appendString(b []byte, s string) []byte {
	enc, _ := json.Marshal(s) // a string always marshals
	return append(b, enc...)
}
