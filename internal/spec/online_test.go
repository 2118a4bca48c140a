package spec_test

import (
	"reflect"
	"slices"
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

// TestCheckerRejectsOutOfRangeAtOnce: an id outside [0, n) is a violation
// as soon as the op naming it ends, even while an earlier op is still in
// flight.
func TestCheckerRejectsOutOfRangeAtOnce(t *testing.T) {
	c := spec.NewChecker[int64](2)
	c.Begin(1) // never ends
	s := c.Begin(2)
	c.End(s, spec.Op[int64]{Kind: spec.Scan, End: 3, Comps: []int{2}, Vals: []int64{0}})
	if c.Err() == nil {
		t.Fatal("a scan of component 2 on a 2-component object was not rejected when it ended")
	}
}

// Seed histories over wider objects, each also run on a size that puts
// its ids out of range.
var (
	// wideSequential reads the initial zero of an unwritten component
	// next to a written one; wideMisread then reads component 3's value
	// on component 2.
	wideSequential = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{1}, Vals: []int64{10}},
		{Kind: spec.Scan, Start: 3, End: 4, Comps: []int{1, 3}, Vals: []int64{10, 0}},
		{Kind: spec.Update, Start: 5, End: 6, Comps: []int{3}, Vals: []int64{30}},
		{Kind: spec.Scan, Start: 7, End: 8, Comps: []int{3}, Vals: []int64{30}},
	}
	wideMisread = append(slices.Clone(wideSequential),
		spec.Op[int64]{Kind: spec.Scan, Start: 9, End: 10, Comps: []int{2}, Vals: []int64{30}})
	// outOfRangeUpdate writes component 2 of a 2-component object.
	outOfRangeUpdate = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{2}, Vals: []int64{5}},
	}
	// unwrittenZero is outOfRangeScan on a 3-component object.
	unwrittenZero = outOfRangeScan
	// zeroBeforeFirstWrite: a scan observes component 2's zero while its
	// first write is in flight; staleZero reads it after the write ended;
	// unwrittenValue reads a value nobody wrote.
	zeroBeforeFirstWrite = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 4, Comps: []int{2}, Vals: []int64{20}},
		{Kind: spec.Scan, Start: 2, End: 3, Comps: []int{2}, Vals: []int64{0}},
	}
	staleZero = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{2}, Vals: []int64{20}},
		{Kind: spec.Scan, Start: 3, End: 4, Comps: []int{2}, Vals: []int64{0}},
	}
	unwrittenValue = []spec.Op[int64]{
		{Kind: spec.Scan, Start: 1, End: 2, Comps: []int{2}, Vals: []int64{20}},
	}
	// overlapScan reads component 1 from before a write it overlaps, and
	// component 2's zero.
	overlapScan = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{1}, Vals: []int64{10}},
		{Kind: spec.Update, Start: 4, End: 5, Comps: []int{1}, Vals: []int64{11}},
		{Kind: spec.Scan, Start: 3, End: 7, Comps: []int{1, 2}, Vals: []int64{10, 0}},
	}
	// writeThenWideScan writes component 2 and scans components 2 and 3:
	// valid on 4 components, out of range on 2.
	writeThenWideScan = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 3, Comps: []int{2}, Vals: []int64{5}},
		{Kind: spec.Scan, Start: 4, End: 5, Comps: []int{2, 3}, Vals: []int64{5, 0}},
	}
)

func TestCheckWideHistories(t *testing.T) {
	for _, h := range []struct {
		name  string
		n     int
		ops   []spec.Op[int64]
		valid bool
	}{
		{"wideSequential", 4, wideSequential, true}, {"wideMisread", 4, wideMisread, false},
		{"outOfRangeUpdate", 2, outOfRangeUpdate, false}, {"unwrittenZero", 3, unwrittenZero, true},
		{"zeroBeforeFirstWrite", 3, zeroBeforeFirstWrite, true}, {"staleZero", 3, staleZero, false},
		{"unwrittenValue", 3, unwrittenValue, false}, {"overlapScan", 3, overlapScan, true},
		{"writeThenWideScan/4", 4, writeThenWideScan, true}, {"writeThenWideScan/2", 2, writeThenWideScan, false},
	} {
		if err := spec.Check(h.n, h.ops); (err == nil) != h.valid {
			t.Errorf("%s on %d components: err = %v, want valid = %v", h.name, h.n, err, h.valid)
		}
	}
}

// FuzzOnlineCheck decodes small histories — up to 4 components and 12
// updates and scans, values repeating freely — and
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
		{2, outOfRangeScan},
		{4, wideSequential}, {4, wideMisread}, {2, outOfRangeUpdate},
		{3, unwrittenZero}, {3, zeroBeforeFirstWrite}, {3, staleZero},
		{3, unwrittenValue}, {3, overlapScan},
		{4, writeThenWideScan}, {2, writeThenWideScan},
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
// count, then per op its kind (update or scan), start and duration, a
// component count and (component, value) pairs. encodeHistory is its inverse for the seed histories.
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
		op := spec.Op[int64]{Kind: spec.Kind(next() % 2)}
		op.Start = int64(next() % 64)
		op.End = op.Start + int64(next()%32)
		for k := 1 + next()%4; k > 0; k-- {
			op.Comps = append(op.Comps, next()%4)
			op.Vals = append(op.Vals, int64(next()%32))
		}
		ops = append(ops, op)
	}
	return n, ops
}

func encodeHistory(n int, ops []spec.Op[int64]) []byte {
	data := []byte{byte(n - 1)}
	for _, op := range ops {
		data = append(data, byte(op.Kind), byte(op.Start), byte(op.End-op.Start), byte(len(op.Comps)-1))
		for i, c := range op.Comps {
			data = append(data, byte(c), byte(op.Vals[i]))
		}
	}
	return data
}
