package snapshot

import (
	"runtime"
	"testing"
)

// WithFreshSurvivors turns on o's freshSurvivors mutation seam (see Grow),
// so the external model-checking tests can prove the searcher convicts it.
func WithFreshSurvivors[V any](o *LockFree[V]) *LockFree[V] {
	o.mut.freshSurvivors = true
	return o
}

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
