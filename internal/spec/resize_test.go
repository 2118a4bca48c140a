package spec_test

import (
	"slices"
	"testing"

	"partialsnapshot/internal/spec"
)

func TestModelResizeSemantics(t *testing.T) {
	m := spec.NewModel[int64](2)
	m.Apply([]int{1}, []int64{10})
	if n, err := m.Grow(2); err != nil || n != 4 {
		t.Fatalf("Grow(2) = %d, %v, want 4, nil", n, err)
	}
	got := m.Read([]int{1, 2, 3})
	want := []int64{10, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Read after grow = %v, want %v", got, want)
		}
	}
	m.Apply([]int{3}, []int64{30})
	if n, err := m.Shrink(2); err != nil || n != 2 {
		t.Fatalf("Shrink(2) = %d, %v, want 2, nil", n, err)
	}
	// Regrow: the component must come back zero-valued, not as 30.
	if n, err := m.Grow(2); err != nil || n != 4 {
		t.Fatalf("regrow = %d, %v, want 4, nil", n, err)
	}
	if got := m.Read([]int{3}); got[0] != 0 {
		t.Fatalf("component 3 after shrink+regrow = %d, want 0", got[0])
	}
	if _, err := m.Grow(0); err == nil {
		t.Fatal("Grow(0) accepted")
	}
	if _, err := m.Shrink(4); err == nil {
		t.Fatal("Shrink of the whole model accepted")
	}
}

// Resizing histories, pinned by the tests below and seeding
// FuzzOnlineCheck alongside spec_test.go's.
var (
	sequentialResizes = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{1}, Vals: []int64{10}},
		{Kind: spec.Grow, Start: 3, End: 4, Delta: 2, Size: 4},
		{Kind: spec.Scan, Start: 5, End: 6, Comps: []int{1, 3}, Vals: []int64{10, 0}},
		{Kind: spec.Update, Start: 7, End: 8, Comps: []int{3}, Vals: []int64{30}},
		{Kind: spec.Shrink, Start: 9, End: 10, Delta: 2, Size: 2},
		{Kind: spec.Grow, Start: 11, End: 12, Delta: 2, Size: 4},
		{Kind: spec.Scan, Start: 13, End: 14, Comps: []int{3}, Vals: []int64{0}},
	}
	// sequentialResurrect reads the regrown component's old value.
	sequentialResurrect = append(slices.Clone(sequentialResizes),
		spec.Op[int64]{Kind: spec.Scan, Start: 15, End: 16, Comps: []int{3}, Vals: []int64{30}})
	growWrongSize = []spec.Op[int64]{
		{Kind: spec.Grow, Start: 1, End: 2, Delta: 1, Size: 5},
	}
	// growThenScan scans component 2, beyond an initial universe of 2,
	// after a Grow created it.
	growThenScan = []spec.Op[int64]{
		{Kind: spec.Grow, Start: 1, End: 2, Delta: 1, Size: 3},
		{Kind: spec.Scan, Start: 3, End: 4, Comps: []int{2}, Vals: []int64{0}},
	}
	// shrinkRegrowZero: component 2's first life saw a completed write of
	// 20; after a shrink+regrow a scan of its second life observes 0.
	shrinkRegrowZero = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{2}, Vals: []int64{20}},
		{Kind: spec.Shrink, Start: 3, End: 4, Delta: 1, Size: 2},
		{Kind: spec.Grow, Start: 5, End: 6, Delta: 1, Size: 3},
		{Kind: spec.Scan, Start: 7, End: 8, Comps: []int{2}, Vals: []int64{0}},
	}
	// staleZero drops the Grow (and the Shrink) from shrinkRegrowZero.
	staleZero = []spec.Op[int64]{shrinkRegrowZero[0], shrinkRegrowZero[3]}
	// resurrectAfterRegrow reads the first life's value after the regrow.
	resurrectAfterRegrow = append(slices.Clone(shrinkRegrowZero),
		spec.Op[int64]{Kind: spec.Scan, Start: 9, End: 10, Comps: []int{2}, Vals: []int64{20}})
	// pinnedBeforeShrink: a scan overlapping the shrink observes the
	// removed component's last value.
	pinnedBeforeShrink = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{2}, Vals: []int64{20}},
		{Kind: spec.Shrink, Start: 4, End: 6, Delta: 1, Size: 2},
		{Kind: spec.Scan, Start: 3, End: 7, Comps: []int{2}, Vals: []int64{20}},
	}
	// namedBeforeGrowReturns names components 2 and 3, beyond an initial
	// universe of 2, while the Grow that creates them is still running:
	// an update writes component 2 and a scan reads both, all inside the
	// Grow's interval.
	namedBeforeGrowReturns = []spec.Op[int64]{
		{Kind: spec.Grow, Start: 1, End: 8, Delta: 2, Size: 4},
		{Kind: spec.Update, Start: 2, End: 4, Comps: []int{2}, Vals: []int64{5}},
		{Kind: spec.Scan, Start: 5, End: 6, Comps: []int{2, 3}, Vals: []int64{5, 0}},
	}
)

func TestCheckSequentialResizes(t *testing.T) {
	if err := spec.CheckSequential(2, sequentialResizes); err != nil {
		t.Fatalf("valid resizing history rejected: %v", err)
	}
	// The regrown component must not resurrect its old value.
	if err := spec.CheckSequential(2, sequentialResurrect); err == nil {
		t.Fatal("resurrected value accepted after shrink+regrow")
	}
	if err := spec.CheckSequential(2, growWrongSize); err == nil {
		t.Fatal("grow with mismatched reported size accepted")
	}
}

func TestCheckGrowLegitimisesNewComponents(t *testing.T) {
	// A scan of component 2 (beyond the initial universe of 2) is fine once
	// a Grow created it; the zero it observes is the Grow's pseudo-write.
	if err := spec.Check(2, growThenScan); err != nil {
		t.Fatalf("scan of grown component rejected: %v", err)
	}
	// Without the Grow the same scan is out of range.
	if err := spec.Check(2, growThenScan[1:]); err == nil {
		t.Fatal("scan beyond the universe accepted without a grow")
	}
}

func TestCheckZeroAfterShrinkRegrow(t *testing.T) {
	// Component 2's first life saw a completed write of 20. After a
	// shrink+regrow, a scan of its second life observes 0 — admissible only
	// because the Grow pseudo-writes zero.
	if err := spec.Check(3, shrinkRegrowZero); err != nil {
		t.Fatalf("zero after shrink+regrow rejected: %v", err)
	}
	// Dropping the Grow turns the same observation into a stale read of the
	// initial value long after the write of 20 completed.
	if err := spec.Check(3, staleZero); err == nil {
		t.Fatal("stale zero accepted without the grow pseudo-write")
	}
	// And the old value must NOT be observable after the regrow completed
	// strictly before the scan began.
	if err := spec.Check(3, resurrectAfterRegrow); err == nil {
		t.Fatal("resurrected pre-shrink value accepted after regrow")
	}
}

func TestCheckScanPinnedBeforeShrinkSeesOldValue(t *testing.T) {
	// A scan concurrent with the shrink (its interval overlaps it) may
	// still observe the removed component's last value: it linearizes
	// before the Shrink.
	if err := spec.Check(3, pinnedBeforeShrink); err != nil {
		t.Fatalf("pre-shrink-pinned scan of removed component rejected: %v", err)
	}
}

func TestCheckComponentNamedBeforeGrowReturns(t *testing.T) {
	// The Grow began before the update and the scan ended, so it may have
	// linearized before both: the ids are in range and the zero on
	// component 3 is the Grow's pseudo-write.
	if err := spec.Check(2, namedBeforeGrowReturns); err != nil {
		t.Fatalf("ops naming components of a running grow rejected: %v", err)
	}
	// Without the Grow both ops name components that never existed.
	if err := spec.Check(2, namedBeforeGrowReturns[1:]); err == nil {
		t.Fatal("ops beyond the universe accepted without a grow")
	}
}
