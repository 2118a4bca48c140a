package spec_test

import (
	"strings"
	"testing"

	"partialsnapshot/internal/spec"
)

func TestModelSequentialSemantics(t *testing.T) {
	m := spec.NewModel[int64](4)
	if got := m.Components(); got != 4 {
		t.Fatalf("Components() = %d, want 4", got)
	}
	m.Apply([]int{1, 3}, []int64{10, 30})
	m.Apply([]int{3}, []int64{31})
	got := m.Read([]int{0, 1, 3})
	want := []int64{0, 10, 31}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Read = %v, want %v", got, want)
		}
	}
}

// The histories below, with resize_test.go's, are what the tests pin and
// what FuzzOnlineCheck's seed corpus starts from.
var (
	sequentialGood = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Scan, Start: 3, End: 4, Comps: []int{0, 1}, Vals: []int64{7, 0}},
		{Kind: spec.Update, Start: 5, End: 6, Comps: []int{0}, Vals: []int64{8}},
		{Kind: spec.Scan, Start: 7, End: 8, Comps: []int{0}, Vals: []int64{8}},
	}
	sequentialStale = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Scan, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{0}},
	}
	overlapping = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 5, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Scan, Start: 2, End: 6, Comps: []int{0}, Vals: []int64{7}},
	}
	// concurrentRead has a scan overlapping an update; it may see the old
	// or the new value.
	concurrentRead = func(seen int64) []spec.Op[int64] {
		return []spec.Op[int64]{
			{Kind: spec.Update, Start: 2, End: 6, Comps: []int{0}, Vals: []int64{7}},
			{Kind: spec.Scan, Start: 3, End: 5, Comps: []int{0}, Vals: []int64{seen}},
		}
	}
	// staleRead: the update completed strictly before the scan began, so
	// the zero value is no longer admissible.
	staleRead = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Scan, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{0}},
	}
	// futureRead: the scan ended before the update began, yet observed
	// its value.
	futureRead = []spec.Op[int64]{
		{Kind: spec.Scan, Start: 1, End: 2, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Update, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{7}},
	}
	// overwrittenRead: two sequential updates, then a scan; the first
	// value is definitely overwritten before the scan starts.
	overwrittenRead = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Update, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{8}},
		{Kind: spec.Scan, Start: 5, End: 6, Comps: []int{0}, Vals: []int64{7}},
	}
	// tornScan mixes the first round's value on component 0, definitely
	// overwritten by the second round, with the first round's value on
	// component 1; consistentScan reads the second round on both.
	tornScan = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0, 1}, Vals: []int64{10, 20}},
		{Kind: spec.Update, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{11}},
		{Kind: spec.Scan, Start: 5, End: 6, Comps: []int{0, 1}, Vals: []int64{10, 20}},
	}
	consistentScan = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0, 1}, Vals: []int64{10, 20}},
		{Kind: spec.Update, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{11}},
		{Kind: spec.Scan, Start: 5, End: 6, Comps: []int{0, 1}, Vals: []int64{11, 20}},
	}
	// midUpdateTear: a scan inside a multi-component update's interval
	// sees the batch half-applied.
	midUpdateTear = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 10, Comps: []int{0, 1}, Vals: []int64{10, 20}},
		{Kind: spec.Scan, Start: 4, End: 6, Comps: []int{0, 1}, Vals: []int64{10, 0}},
	}
)

func TestCheckSequential(t *testing.T) {
	if err := spec.CheckSequential(2, sequentialGood); err != nil {
		t.Fatalf("valid sequential history rejected: %v", err)
	}
	if err := spec.CheckSequential(2, sequentialStale); err == nil {
		t.Fatal("stale sequential read accepted")
	}
	if err := spec.CheckSequential(2, overlapping); err == nil || !strings.Contains(err.Error(), "not sequential") {
		t.Fatalf("overlapping history: err = %v, want 'not sequential'", err)
	}
}

func TestCheckAdmitsConcurrentReads(t *testing.T) {
	for _, seen := range []int64{0, 7} {
		if err := spec.Check(1, concurrentRead(seen)); err != nil {
			t.Fatalf("concurrent scan seeing %d rejected: %v", seen, err)
		}
	}
}

func TestCheckRejectsStaleRead(t *testing.T) {
	if err := spec.Check(1, staleRead); err == nil {
		t.Fatal("stale read accepted")
	}
}

func TestCheckRejectsFutureRead(t *testing.T) {
	if err := spec.Check(1, futureRead); err == nil {
		t.Fatal("future read accepted")
	}
}

func TestCheckRejectsOverwrittenRead(t *testing.T) {
	if err := spec.Check(1, overwrittenRead); err == nil {
		t.Fatal("definitely-overwritten read accepted")
	}
}

func TestCheckRejectsTornScan(t *testing.T) {
	// Two components, each rewritten by a (completed) update, then a later
	// pair of completed updates. A scan that mixes the first round's value
	// on one component with the second round's on the other — when the
	// rounds are separated in real time and the scan follows both — has no
	// single admissible instant.
	if err := spec.Check(2, tornScan); err == nil {
		t.Fatal("torn scan accepted: component 0's value 10 was definitely overwritten")
	}
	// The consistent observation passes.
	if err := spec.Check(2, consistentScan); err != nil {
		t.Fatalf("consistent scan rejected: %v", err)
	}
}

func TestCheckAdmitsTearingInsideUpdateInterval(t *testing.T) {
	// A scan running inside a multi-component update's interval may see
	// the batch half-applied; the per-component semantics admit that.
	if err := spec.Check(2, midUpdateTear); err != nil {
		t.Fatalf("mid-update tear rejected: %v", err)
	}
}

func TestCheckProvenance(t *testing.T) {
	update := spec.Op[int64]{Kind: spec.Update, Start: 3, End: 6,
		Comps: []int{0}, Vals: []int64{7}, UpdateID: 11}
	cases := []struct {
		name    string
		scan    spec.Op[int64]
		wantErr string // "" = accept
	}{
		{
			name: "own double collect needs no provenance",
			scan: spec.Op[int64]{Kind: spec.Scan, Start: 4, End: 5, Comps: []int{0}, Vals: []int64{7}},
		},
		{
			name: "adoption from a concurrent intersecting update",
			scan: spec.Op[int64]{Kind: spec.Scan, Start: 4, End: 8,
				Comps: []int{0, 1}, Vals: []int64{7, 0}, AdoptedFrom: 11},
		},
		{
			name: "adoption from an unknown op",
			scan: spec.Op[int64]{Kind: spec.Scan, Start: 4, End: 8,
				Comps: []int{0}, Vals: []int64{7}, AdoptedFrom: 99},
			wantErr: "not in the history",
		},
		{
			name: "adoption from an update that finished before the scan began",
			scan: spec.Op[int64]{Kind: spec.Scan, Start: 7, End: 9,
				Comps: []int{0}, Vals: []int64{7}, AdoptedFrom: 11},
			wantErr: "not concurrent",
		},
		{
			name: "adoption from a disjoint update",
			scan: spec.Op[int64]{Kind: spec.Scan, Start: 4, End: 8,
				Comps: []int{1}, Vals: []int64{0}, AdoptedFrom: 11},
			wantErr: "disjoint",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := spec.CheckProvenance([]spec.Op[int64]{update, tc.scan})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid provenance rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestRecorderClockOrdersSequentialOps(t *testing.T) {
	rec := &spec.Recorder[int64]{}
	aStart := rec.Now()
	aEnd := rec.Now()
	bStart := rec.Now()
	if !(aStart < aEnd && aEnd < bStart) {
		t.Fatalf("clock not strictly monotonic: %d %d %d", aStart, aEnd, bStart)
	}
	rec.Add(spec.Op[int64]{Kind: spec.Update, Start: aStart, End: aEnd, Comps: []int{0}, Vals: []int64{1}})
	if got := len(rec.Ops()); got != 1 {
		t.Fatalf("Ops() len = %d, want 1", got)
	}
}
