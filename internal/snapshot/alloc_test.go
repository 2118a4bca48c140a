package snapshot_test

import (
	"runtime"
	"testing"

	"partialsnapshot/internal/snapshot"
)

// Steady-state allocation budgets for the single-goroutine hot paths.
// LockFree recycles scan records and collect buffers (pool.go) and batches
// an update's cells into one backing array, so the only allocation an
// uncontended operation performs is the one the caller (or the register
// file) keeps: the result slice of a scan, the cell batch of an update.
// These tests are the regression gate for that property — any new
// per-operation allocation on the fast paths fails them, long before the
// benchmark trend would show it.
//
// The budgets allow a small fraction over the integer target because a GC
// cycle during the measurement loop legitimately empties the pools and
// forces a refill.
const allocSlack = 0.1

func assertAllocs(t *testing.T, name string, budget float64, f func() error) {
	t.Helper()
	var err error
	got := testing.AllocsPerRun(2000, func() {
		if e := f(); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got > budget+allocSlack {
		t.Errorf("%s: %.3f allocs/op, budget %g", name, got, budget)
	} else {
		t.Logf("%s: %.3f allocs/op (budget %g)", name, got, budget)
	}
}

func TestAllocsPerOpLockFree(t *testing.T) {
	o := snapshot.NewLockFree[int64](64)
	narrow, narrowVals := []int{3}, []int64{1}
	wide, wideVals := []int{3, 40, 17, 60}, []int64{1, 2, 3, 4}
	scanIDs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	// One set on each side of the stack-resident collect width (16): the
	// widest stack collect and the narrowest pooled one.
	stackIDs, pooledIDs := make([]int, 16), make([]int, 17)
	for i := range pooledIDs {
		pooledIDs[i] = 3 * i
	}
	copy(stackIDs, pooledIDs)
	// Warm the pools: the first operations of each width allocate the
	// reusable buffers the steady state then lives off.
	for i := 0; i < 64; i++ {
		if err := o.Update(wide, wideVals); err != nil {
			t.Fatal(err)
		}
		if _, err := o.PartialScan(scanIDs); err != nil {
			t.Fatal(err)
		}
		if _, err := o.PartialScan(pooledIDs); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Scan(); err != nil {
			t.Fatal(err)
		}
	}

	// One allocation per update: the batch's cell array (never pooled —
	// cell ABA safety is the GC's job), regardless of batch width.
	assertAllocs(t, "lockfree Update width-1", 1, func() error { return o.Update(narrow, narrowVals) })
	assertAllocs(t, "lockfree Update width-4", 1, func() error { return o.Update(wide, wideVals) })
	// One allocation per scan: the result slice the caller keeps.
	assertAllocs(t, "lockfree PartialScan width-8", 1, func() error { _, err := o.PartialScan(scanIDs); return err })
	assertAllocs(t, "lockfree PartialScan width-16", 1, func() error { _, err := o.PartialScan(stackIDs); return err })
	assertAllocs(t, "lockfree PartialScan width-17", 1, func() error { _, err := o.PartialScan(pooledIDs); return err })
	assertAllocs(t, "lockfree full Scan", 1, func() error { _, err := o.Scan(); return err })
}

func TestAllocsPerOpRWMutex(t *testing.T) {
	o := snapshot.NewRWMutex[int64](64)
	ids, vals := []int{3, 40}, []int64{1, 2}
	scanIDs := []int{1, 2, 3, 4}
	assertAllocs(t, "rwmutex Update width-2", 0, func() error { return o.Update(ids, vals) })
	assertAllocs(t, "rwmutex PartialScan width-4", 1, func() error { _, err := o.PartialScan(scanIDs); return err })
}

// TestUpdateBytes pins the size of a cell: it holds only its value, so a
// width-2 int64 update allocates one 16-byte batch and nothing else. A
// field added to the cell (an op id, a version) doubles this.
func TestUpdateBytes(t *testing.T) {
	const (
		runs   = 10_000
		budget = 16
	)
	// Like testing.AllocsPerRun: one P, so no other goroutine's
	// allocations land inside the measured window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ids, vals := []int{3, 40}, []int64{1, 2}
	o := snapshot.NewLockFree[int64](64)
	for i := 0; i < 64; i++ {
		if err := o.Update(ids, vals); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := o.Update(ids, vals); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if got > budget+allocSlack {
		t.Errorf("lockfree Update width-2: %.2f B/op, budget %d", got, budget)
	} else {
		t.Logf("lockfree Update width-2: %.2f B/op (budget %d)", got, budget)
	}
}
