package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/workload"
)

// perfbenchBodies returns request bodies exactly as the repository
// benchmark (perfbench, serve-mixed) writes them: its workload shape and
// its encoder, {"ids":[...]} for a scan and {"ids":[...],"vals":[...]} for
// an update. It returns the first bodiesPerKind of each kind from one
// stream, so the fuzz targets' seed ids stay put when the generator's
// draws move.
func perfbenchBodies(tb testing.TB) (updates, scans [][]byte) {
	tb.Helper()
	gen, err := workload.New(workload.Config{Shape: workload.Uniform, Components: 64,
		Workers: 2, ScanWidth: 4, UpdateWidth: 2, ScanFrac: 0.5, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	st := gen.Stream(1)
	const bodiesPerKind = 8
	for len(updates) < bodiesPerKind || len(scans) < bodiesPerKind {
		op := st.Next()
		b := []byte(`{"ids":[`)
		for i, c := range op.Comps {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
		b = append(b, ']')
		if op.Kind == workload.OpScan {
			scans = append(scans, append(b, '}'))
			continue
		}
		b = append(b, `,"vals":[`...)
		for i, v := range op.Vals {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		updates = append(updates, append(b, "]}"...))
	}
	return updates[:bodiesPerKind], scans[:bodiesPerKind]
}

// Seeds every target shares: valid and invalid corners of the grammar the
// parser must either agree on or hand to encoding/json.
var commonSeeds = []string{
	``, ` `, `{}`, ` {} `, `{`, `}`, `null`, `[]`, `"ids"`, `{"ids":[1]} trailing`,
	`{"ids":[1]}{"bogus":1}`, `{"ids":[1],}`, `{,}`, `{"ids"}`, `{"ids":}`,
	`{"ids":[1,2,3]}`, `{"ids":[]}`, `{"ids":null}`, `{"ids":[1],"ids":[2]}`,
	`{"IDS":[1]}`, `{"Ids":[1]}`, `{"ids":[1]}`, `{"ıds":[1]}`, `{"bogus":1}`,
	`{"ids":[01]}`, `{"ids":[-0]}`, `{"ids":[-]}`, `{"ids":[+1]}`, `{"ids":[1.0]}`,
	`{"ids":[1e2]}`, `{"ids":[1E2]}`, `{"ids":["1"]}`, `{"ids":[true]}`, `{"ids":[1,]}`,
	`{"ids":[9223372036854775807]}`, `{"ids":[9223372036854775808]}`,
	`{"ids":[-9223372036854775808]}`, `{"ids":[-9223372036854775809]}`,
	`{"ids":[99999999999999999999]}`, "{\t\"ids\" :\n[ 1 ,\r2 ] }",
	`{"ids":[1],"vals":[2]}`, `{"vals":[2],"ids":[1]}`, `{"ids":[1],"vals":[]}`,
	`{"ops":[]}`, `{"ops":[{"ids":[1],"vals":[2]},{"ids":[3],"vals":[4]}]}`,
	`{"ops":[{"ids":[1]}]}`, `{"ops":[{}]}`, `{"ops":[null]}`, `{"ops":null}`,
	`{"ops":[{"ops":[]}]}`, `{"ops":[{"ids":[1],"ids":[2]}]}`, `{"ops":[{"all":true}]}`,
	`{"ids":[1],"ops":[{"ids":[2],"vals":[3]}]}`, `{"ops":[{"ids":[1],"vals":[2]}],"ids":[1]}`,
	`{"all":true}`, `{"all":false}`, `{"all":1}`, `{"all":tru}`, `{"all":truex}`,
	`{"all":true,"ids":[1]}`, `{"all":null}`,
	`{"delta":2}`, `{"delta":-2}`, `{"delta":0}`, `{"delta":2.5}`, `{"delta":"2"}`,
	`{"delta":2,"delta":3}`, `{"delta":9223372036854775808}`, `{"delta":null}`,
}

// decodeWith runs the codec over body as a request carrying the given
// fields.
func decodeWith(body []byte, allowed field) (*request, error) {
	q := &request{}
	q.reset()
	q.body = append(q.body, body...)
	return q, q.decode(allowed)
}

// reference decodes body the way the server did before the codec: one
// json.Decoder value, unknown fields disallowed.
func reference(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// orNil maps an empty slice to nil: a handler treats the two alike, and
// encoding/json and the codec differ only there.
func orNil[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	return xs
}

// agree checks the codec's verdict on body against encoding/json's:
// accept/reject must match and, on accept, so must the decoded values.
// longest is the longest list the reference decoded, for the one verdict
// they may differ on, the codec's list cap.
func agree(t *testing.T, body []byte, gotErr, refErr error, got, want any, longest int) {
	t.Helper()
	if errors.Is(gotErr, errTooLong) {
		if refErr == nil && longest <= maxListLen {
			t.Fatalf("%q: codec reports a list over %d, encoding/json's longest is %d", body, maxListLen, longest)
		}
		return
	}
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("%q: codec error %v, encoding/json error %v", body, gotErr, refErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: codec decoded %+v, encoding/json %+v", body, got, want)
	}
}

func FuzzDecodeUpdate(f *testing.F) {
	updates, _ := perfbenchBodies(f)
	for _, b := range updates {
		f.Add(b)
	}
	for _, s := range commonSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := decodeWith(body, updateFields)
		var ref UpdateReq
		refErr := reference(body, &ref)
		got := UpdateReq{IDs: orNil(q.idList(q.ids)), Vals: orNil(q.valList(q.val))}
		for _, op := range q.ops {
			got.Ops = append(got.Ops, OneOp{IDs: orNil(q.idList(op.ids)), Vals: orNil(q.valList(op.vals))})
		}
		want := UpdateReq{IDs: orNil(ref.IDs), Vals: orNil(ref.Vals)}
		longest := max(len(ref.IDs), len(ref.Vals), len(ref.Ops))
		for _, op := range ref.Ops {
			want.Ops = append(want.Ops, OneOp{IDs: orNil(op.IDs), Vals: orNil(op.Vals)})
			longest = max(longest, len(op.IDs), len(op.Vals))
		}
		want.Ops = orNil(want.Ops)
		agree(t, body, err, refErr, got, want, longest)
	})
}

func FuzzDecodeScan(f *testing.F) {
	_, scans := perfbenchBodies(f)
	for _, b := range scans {
		f.Add(b)
	}
	for _, s := range commonSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := decodeWith(body, scanFields)
		var ref ScanReq
		refErr := reference(body, &ref)
		got := ScanReq{IDs: orNil(q.idList(q.ids)), All: q.all}
		want := ScanReq{IDs: orNil(ref.IDs), All: ref.All}
		agree(t, body, err, refErr, got, want, len(ref.IDs))
	})
}

// FuzzDecodeResize: n is fixed, so no body resizes the object. Whatever is
// POSTed to /grow, where resize bodies ({"delta":k}, among the seeds) once
// went, is answered 404 unread, and a full scan still covers n components.
func FuzzDecodeResize(f *testing.F) {
	for _, s := range commonSeeds {
		f.Add([]byte(s))
	}
	const n = 4
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, n)
	if err != nil {
		f.Fatal(err)
	}
	h := New(obj, snapshot.ImplLockFree, Config{}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		if w := serve(h, http.MethodPost, "/grow", string(body)); w.Code != http.StatusNotFound {
			t.Fatalf("%q: POST /grow answered %d, want 404", body, w.Code)
		}
		w := serve(h, http.MethodPost, "/scan", `{"all":true}`)
		var resp ScanResp
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
			t.Fatalf("full scan: %d %s (%v)", w.Code, w.Body, err)
		}
		if len(resp.IDs) != n {
			t.Fatalf("%q: after POST /grow a full scan covers %d components, want %d", body, len(resp.IDs), n)
		}
	})
}

// TestPerfbenchBodiesTakeThePlainPath pins that the benchmark's request
// bodies are parsed by the codec itself, never handed to encoding/json.
func TestPerfbenchBodiesTakeThePlainPath(t *testing.T) {
	updates, scans := perfbenchBodies(t)
	for _, tc := range []struct {
		bodies  [][]byte
		allowed field
	}{{updates, updateFields}, {scans, scanFields}} {
		for _, b := range tc.bodies {
			q := &request{}
			p := parser{b: b}
			if !p.object(q, tc.allowed, &q.ids, &q.val) {
				t.Errorf("%s: parser declined a plain body", b)
			}
		}
	}
}

// The reply types as the server encoded them with encoding/json before the
// codec: the codec must reproduce these bytes exactly.
type (
	oldScanResp struct {
		IDs    []int   `json:"ids"`
		Vals   []int64 `json:"vals"`
		Cached bool    `json:"cached,omitempty"`
	}
	oldErrorResp struct {
		ErrorResp
		Applied int `json:"applied,omitempty"`
	}
)

// TestReplyBytesMatchEncodingJSON byte-compares every reply the codec
// writes against json.NewEncoder(..).Encode of the structs it replaces,
// trailing newline included.
func TestReplyBytesMatchEncodingJSON(t *testing.T) {
	msgs := []string{
		"", "plain", `quote " backslash \ slash /`, "<html> & 'apos'",
		"tab\tnewline\ncr\rbell\x07nul\x00", "unicode é 世界   ",
		"bad utf-8 \xff\xfe", "\x7f del", `bad request body: json: unknown field "bogus"`,
	}
	cases := []struct {
		name string
		old  any
		got  []byte
	}{
		{"scan", oldScanResp{IDs: []int{7, 0}, Vals: []int64{70, 10}}, appendScanResp(nil, []int{7, 0}, []int64{70, 10})},
		{"scan extremes", oldScanResp{IDs: []int{0, 63}, Vals: []int64{math.MinInt64, math.MaxInt64}},
			appendScanResp(nil, []int{0, 63}, []int64{math.MinInt64, math.MaxInt64})},
		{"scan one", oldScanResp{IDs: []int{5}, Vals: []int64{-1}}, appendScanResp(nil, []int{5}, []int64{-1})},
		{"scan empty", oldScanResp{IDs: []int{}, Vals: []int64{}}, appendScanResp(nil, []int{}, []int64{})},
		{"scan nil", oldScanResp{}, appendScanResp(nil, nil, nil)},
		{"update", UpdateResp{Applied: 3}, appendCount(nil, "applied", 3)},
		{"update zero", UpdateResp{}, appendCount(nil, "applied", 0)},
	}
	for i, m := range msgs {
		cases = append(cases, struct {
			name string
			old  any
			got  []byte
		}{"error " + strconv.Itoa(i), oldErrorResp{ErrorResp{Error: m, Code: "bad_request"}, i % 3},
			appendError(nil, m, "bad_request", i%3)})
	}
	for _, tc := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(tc.old); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tc.got, want.Bytes()) {
			t.Errorf("%s: codec wrote %q, encoding/json %q", tc.name, tc.got, want.Bytes())
		}
	}
}

// TestDecodeCapsLists pins the list cap on every list a body can carry,
// on the codec's own path and on the encoding/json one.
func TestDecodeCapsLists(t *testing.T) {
	long := strings.Repeat("1,", maxListLen) + "1"
	for _, tc := range []struct {
		body    string
		allowed field
	}{
		{`{"ids":[` + long + `]}`, scanFields},
		{`{"ids":[` + long + `],"all":false,"all":false}`, scanFields},
		{`{"ids":[1],"vals":[` + long + `]}`, updateFields},
		{`{"ops":[` + strings.Repeat(`{"ids":[1]},`, maxListLen) + `{}]}`, updateFields},
		{`{"IDS":[` + long + `]}`, updateFields},
	} {
		if _, err := decodeWith([]byte(tc.body), tc.allowed); !errors.Is(err, errTooLong) {
			t.Errorf("%.40s...: error %v, want the list cap", tc.body, err)
		}
	}
	ok := `{"ids":[` + strings.Repeat("1,", maxListLen-1) + `1]}`
	if _, err := decodeWith([]byte(ok), scanFields); err != nil {
		t.Errorf("a list of exactly %d ids: %v", maxListLen, err)
	}
}
