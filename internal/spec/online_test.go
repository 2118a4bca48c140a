package spec_test

import (
	"reflect"
	"testing"

	"partialsnapshot/internal/spec"
)

// TestCheckerConvictsOnline feeds a stale read event by event: the
// verdict must come as soon as the scan is decided, not at the end of the
// history, and must wait while an op that began before the scan ended is
// still open.
func TestCheckerConvictsOnline(t *testing.T) {
	c := spec.NewChecker[int64](2)
	w := c.Begin(1)
	c.End(w, spec.Op[int64]{Kind: spec.Update, End: 2, Comps: []int{0}, Vals: []int64{7}})
	s := c.Begin(3)
	open := c.Begin(4) // overlaps the scan; it could have written component 0
	c.End(s, spec.Op[int64]{Kind: spec.Scan, End: 5, Comps: []int{0}, Vals: []int64{0}})
	if err := c.Err(); err != nil {
		t.Fatalf("verdict %v before the overlapping op ended", err)
	}
	if st := c.Status(); st.Pending != 2 || st.Checked != 1 || st.Recorded != 2 {
		t.Fatalf("status with one scan waiting: %+v", st)
	}
	c.End(open, spec.Op[int64]{Kind: spec.Update, End: 6, Comps: []int{1}, Vals: []int64{9}})
	if c.Err() == nil {
		t.Fatal("stale read not convicted once it was decided")
	}
	// The violation is sticky and later events are ignored.
	later := c.Begin(7)
	c.End(later, spec.Op[int64]{Kind: spec.Scan, End: 8, Comps: []int{0}, Vals: []int64{7}})
	if st := c.Status(); c.Err() == nil || st.Ended != st.Begun || st.Pending != 0 {
		t.Fatalf("after a violation: err %v, status %+v", c.Err(), st)
	}
}

// TestCheckerAbortIsNotHistory: an aborted op leaves no write behind and
// does not hold the window open.
func TestCheckerAbortIsNotHistory(t *testing.T) {
	c := spec.NewChecker[int64](1)
	rejected := c.Begin(1)
	s := c.Begin(2)
	c.Abort(rejected)
	c.End(s, spec.Op[int64]{Kind: spec.Scan, End: 3, Comps: []int{0}, Vals: []int64{0}})
	st := c.Status()
	if c.Err() != nil || st.Recorded != 1 || st.Checked != 1 || st.Pending != 0 || st.Retained != 0 {
		t.Fatalf("err %v, status %+v", c.Err(), st)
	}
}

// FuzzOnlineCheck decodes small histories — up to 4 components and 12
// updates, scans and grows, values repeating freely — and
// requires the online Checker (through Check) to reach the batch
// reference's verdict.
func FuzzOnlineCheck(f *testing.F) {
	for _, h := range []struct {
		n   int
		ops []spec.Op[int64]
	}{
		{2, sequentialGood}, {2, sequentialStale}, {2, overlapping},
		{1, concurrentRead(0)}, {1, concurrentRead(7)},
		{1, staleRead}, {1, futureRead}, {1, overwrittenRead},
		{2, tornScan}, {2, consistentScan}, {2, midUpdateTear},
		{2, sequentialResizes}, {2, sequentialMisread}, {2, growWrongSize},
		{2, growThenScan}, {2, growThenScan[1:]},
		{2, grownZeroBeforeWrite}, {2, grownStaleZero}, {2, grownUnwritten},
		{2, growOverlapsScan},
		{2, namedBeforeGrowReturns}, {2, namedBeforeGrowReturns[1:]},
	} {
		data := encodeHistory(h.n, h.ops)
		if n, ops := decodeHistory(data); n != h.n || !reflect.DeepEqual(ops, h.ops) {
			f.Fatalf("seed history does not round-trip: %v -> %v", h.ops, ops)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, ops := decodeHistory(data)
		online, batch := spec.Check(n, ops), spec.CheckBatch(n, ops)
		if (online == nil) != (batch == nil) {
			t.Fatalf("n=%d ops=%+v: online verdict %v, batch verdict %v", n, ops, online, batch)
		}
	})
}

// decodeHistory reads a history from fuzz bytes: the initial component
// count, then per op its kind, start and duration, and either a component
// count and (component, value) pairs or a Grow's delta and size.
// encodeHistory is its inverse for the seed histories.
func decodeHistory(data []byte) (int, []spec.Op[int64]) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%4
	var ops []spec.Op[int64]
	for len(data) > 0 && len(ops) < 12 {
		op := spec.Op[int64]{Kind: spec.Kind(next() % 3)}
		op.Start = int64(next() % 64)
		op.End = op.Start + int64(next()%32)
		switch op.Kind {
		case spec.Update, spec.Scan:
			for k := 1 + next()%4; k > 0; k-- {
				op.Comps = append(op.Comps, next()%4)
				op.Vals = append(op.Vals, int64(next()%32))
			}
		default:
			op.Delta, op.Size = next()%8, next()%8
		}
		ops = append(ops, op)
	}
	return n, ops
}

func encodeHistory(n int, ops []spec.Op[int64]) []byte {
	data := []byte{byte(n - 1)}
	for _, op := range ops {
		data = append(data, byte(op.Kind), byte(op.Start), byte(op.End-op.Start))
		switch op.Kind {
		case spec.Update, spec.Scan:
			data = append(data, byte(len(op.Comps)-1))
			for i, c := range op.Comps {
				data = append(data, byte(c), byte(op.Vals[i]))
			}
		default:
			data = append(data, byte(op.Delta), byte(op.Size))
		}
	}
	return data
}
