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
	if got := m.Read([]int{3}); got[0] != 30 {
		t.Fatalf("grown component 3 after a write = %d, want 30", got[0])
	}
	for _, k := range []int{0, -1} {
		if _, err := m.Grow(k); err == nil {
			t.Fatalf("Grow(%d) accepted", k)
		}
	}
	if n := m.Components(); n != 4 {
		t.Fatalf("rejected grows left %d components, want 4", n)
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
		{Kind: spec.Scan, Start: 9, End: 10, Comps: []int{3}, Vals: []int64{30}},
	}
	// sequentialMisread reads component 3's value on component 2.
	sequentialMisread = append(slices.Clone(sequentialResizes),
		spec.Op[int64]{Kind: spec.Scan, Start: 11, End: 12, Comps: []int{2}, Vals: []int64{30}})
	growWrongSize = []spec.Op[int64]{
		{Kind: spec.Grow, Start: 1, End: 2, Delta: 1, Size: 5},
	}
	// growThenScan scans component 2, beyond an initial universe of 2,
	// after a Grow created it.
	growThenScan = []spec.Op[int64]{
		{Kind: spec.Grow, Start: 1, End: 2, Delta: 1, Size: 3},
		{Kind: spec.Scan, Start: 3, End: 4, Comps: []int{2}, Vals: []int64{0}},
	}
	// grownZeroBeforeWrite: a scan of the grown component 2 observes 0
	// while its first write is still in flight.
	grownZeroBeforeWrite = []spec.Op[int64]{
		{Kind: spec.Grow, Start: 1, End: 2, Delta: 1, Size: 3},
		{Kind: spec.Update, Start: 3, End: 6, Comps: []int{2}, Vals: []int64{20}},
		{Kind: spec.Scan, Start: 4, End: 5, Comps: []int{2}, Vals: []int64{0}},
	}
	// grownStaleZero: the same zero, read after the write completed.
	grownStaleZero = []spec.Op[int64]{
		{Kind: spec.Grow, Start: 1, End: 2, Delta: 1, Size: 3},
		{Kind: spec.Update, Start: 3, End: 4, Comps: []int{2}, Vals: []int64{20}},
		{Kind: spec.Scan, Start: 5, End: 6, Comps: []int{2}, Vals: []int64{0}},
	}
	// grownUnwritten reads a value nobody wrote on the grown component.
	grownUnwritten = []spec.Op[int64]{
		{Kind: spec.Grow, Start: 1, End: 2, Delta: 1, Size: 3},
		{Kind: spec.Scan, Start: 3, End: 4, Comps: []int{2}, Vals: []int64{20}},
	}
	// growOverlapsScan: a scan overlapping a Grow reads an existing
	// component's value from before a concurrent write and the zero of
	// the component the Grow creates.
	growOverlapsScan = []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{1}, Vals: []int64{10}},
		{Kind: spec.Grow, Start: 3, End: 6, Delta: 1, Size: 3},
		{Kind: spec.Update, Start: 4, End: 5, Comps: []int{1}, Vals: []int64{11}},
		{Kind: spec.Scan, Start: 3, End: 7, Comps: []int{1, 2}, Vals: []int64{10, 0}},
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
	if err := spec.CheckSequential(2, sequentialMisread); err == nil {
		t.Fatal("a grown component read another component's value")
	}
	if err := spec.CheckSequential(2, growWrongSize); err == nil {
		t.Fatal("grow with mismatched reported size accepted")
	}
}

func TestCheckGrowLegitimisesNewComponents(t *testing.T) {
	// A scan of component 2 (beyond the initial universe of 2) is fine once
	// a Grow created it; the zero it observes is the initial value.
	if err := spec.Check(2, growThenScan); err != nil {
		t.Fatalf("scan of grown component rejected: %v", err)
	}
	// Without the Grow the same scan is out of range.
	if err := spec.Check(2, growThenScan[1:]); err == nil {
		t.Fatal("scan beyond the universe accepted without a grow")
	}
}

// TestCheckGrownComponentZeroUntilFirstWrite: a grown component has no
// earlier write, so the Grow needs no write of its own for the checker.
// Its zero is admissible exactly until its first write definitely
// completes, like any component's initial value.
func TestCheckGrownComponentZeroUntilFirstWrite(t *testing.T) {
	if err := spec.Check(2, grownZeroBeforeWrite); err != nil {
		t.Fatalf("zero read during the first write rejected: %v", err)
	}
	if err := spec.Check(2, grownStaleZero); err == nil {
		t.Fatal("zero read after the first write completed accepted")
	}
	if err := spec.Check(2, grownUnwritten); err == nil {
		t.Fatal("unwritten value accepted on a grown component")
	}
	if err := spec.Check(2, growOverlapsScan); err != nil {
		t.Fatalf("scan overlapping a grow rejected: %v", err)
	}
}

func TestCheckComponentNamedBeforeGrowReturns(t *testing.T) {
	// The Grow began before the update and the scan ended, so it may have
	// linearized before both: the ids are in range and the zero on
	// component 3 is its initial value.
	if err := spec.Check(2, namedBeforeGrowReturns); err != nil {
		t.Fatalf("ops naming components of a running grow rejected: %v", err)
	}
	// Without the Grow both ops name components that never existed.
	if err := spec.Check(2, namedBeforeGrowReturns[1:]); err == nil {
		t.Fatal("ops beyond the universe accepted without a grow")
	}
}
