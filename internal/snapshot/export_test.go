package snapshot

import (
	"runtime"
	"testing"
)

// MallocSlack is the per-op slack MallocsPerRun budgets allow: 100 extra
// allocations over its 10,000 runs, for pool refills after a GC.
const MallocSlack = 0.01

// MallocsPerRun returns the heap allocations and bytes f averages over
// 10,000 runs after 64 warm-up runs. Like testing.AllocsPerRun it runs on
// one P, so no other goroutine's allocations land inside the measured
// window and every run meets the same per-P pool; unlike it, it does not
// truncate the averages to integers, so an allocation on every second run
// reads as 0.5, not 0.
func MallocsPerRun(t *testing.T, f func() error) (allocs, bytes float64) {
	t.Helper()
	const runs = 10_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 64; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// PartialScanInfo is PartialScan, also reporting how the scan completed.
func (o *LockFree[V]) PartialScanInfo(ids []int) ([]V, ScanInfo, error) {
	return o.appendScanInfo(nil, ids)
}

// registryLen counts enrollments currently linked across all slots,
// retired-but-not-yet-unlinked ones included; a record enrolled in k slots
// counts k times.
func (o *LockFree[V]) registryLen() int {
	n := 0
	for c := range o.slots {
		n += o.slotLen(c)
	}
	return n
}

// slotLen counts enrollments currently linked in component c's slot,
// retired-but-not-yet-unlinked ones included.
func (o *LockFree[V]) slotLen(c int) int {
	n := 0
	for cur := o.slots[c].head.Load(); cur != nil; cur = cur.next.Load() {
		n++
	}
	return n
}

// UpdateServing announces k ≤ 16 level-0 records on ids, runs
// Update(ids, vals), which serves every one of them, then retires them.
func (o *LockFree[V]) UpdateServing(k int, ids []int, vals []V) error {
	var recs [16]*scanRecord[V]
	for i := range recs[:k] {
		recs[i] = newRecord[V](ids, 0)
		o.announce(recs[i])
	}
	err := o.Update(ids, vals)
	for _, rec := range recs[:k] {
		o.retire(rec)
	}
	return err
}
