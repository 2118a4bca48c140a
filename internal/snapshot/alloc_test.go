package snapshot_test

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"partialsnapshot/internal/snapshot"
)

// Steady-state allocation budgets for the single-goroutine hot paths.
// An uncontended scan announces no record, wide scans recycle their collect
// buffers (pool.go), and every write takes never-used slots from a 128 B
// run (registers.go), so an uncontended scan performs one allocation — the
// result slice its caller keeps — and an update only its share of a run:
// 1/16 per int64 slot. These
// tests are the regression gate for that property — any new per-operation
// allocation on the fast paths fails them, long before the benchmark trend
// would show it.
//
// The budgets allow a small fraction over the integer target because a GC
// cycle during the measurement loop legitimately empties the pools and
// forces a refill.
const allocSlack = 0.1

func assertAllocs(t *testing.T, name string, budget float64, f func() error) {
	t.Helper()
	got, _ := snapshot.MallocsPerRun(t, f)
	if got > budget+allocSlack {
		t.Errorf("%s: %.3f allocs/op, budget %g", name, got, budget)
	} else {
		t.Logf("%s: %.3f allocs/op (budget %g)", name, got, budget)
	}
}

func TestAllocsPerOpLockFree(t *testing.T) {
	o := snapshot.NewLockFree[int64](64)
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

	// One allocation per scan: the result slice the caller keeps.
	assertAllocs(t, "lockfree PartialScan width-8", 1, func() error { _, err := o.PartialScan(scanIDs); return err })
	assertAllocs(t, "lockfree PartialScan width-16", 1, func() error { _, err := o.PartialScan(stackIDs); return err })
	if raceEnabled {
		t.Skip("pooled collects and update budgets: the race detector drops sync.Pool Puts at random")
	}
	assertAllocs(t, "lockfree PartialScan width-17", 1, func() error { _, err := o.PartialScan(pooledIDs); return err })
	assertAllocs(t, "lockfree full Scan", 1, func() error { _, err := o.Scan(); return err })

	// An int64 run holds 16 slots, so a width-w update starts a run every
	// 16/w updates; a batch wider than a run takes a run of its own.
	for _, tc := range []struct {
		width  int
		budget float64
	}{{1, 1.0 / 16}, {2, 1.0 / 8}, {4, 1.0 / 4}, {17, 1}} {
		ids, vals := make([]int, tc.width), make([]int64, tc.width)
		for i := range ids {
			ids[i], vals[i] = 3*i, int64(i)
		}
		allocs, _ := snapshot.MallocsPerRun(t, func() error { return o.Update(ids, vals) })
		if allocs > tc.budget+snapshot.MallocSlack {
			t.Errorf("lockfree Update width-%d: %.4f allocs/op, budget %.4f", tc.width, allocs, tc.budget)
		} else {
			t.Logf("lockfree Update width-%d: %.4f allocs/op (budget %.4f)", tc.width, allocs, tc.budget)
		}
	}
}

func TestAllocsPerOpRWMutex(t *testing.T) {
	o := snapshot.NewRWMutex[int64](64)
	ids, vals := []int{3, 40}, []int64{1, 2}
	scanIDs := []int{1, 2, 3, 4}
	assertAllocs(t, "rwmutex Update width-2", 0, func() error { return o.Update(ids, vals) })
	assertAllocs(t, "rwmutex PartialScan width-4", 1, func() error { _, err := o.PartialScan(scanIDs); return err })
}

// TestUpdateBytes pins the size of a value slot: it holds only the value,
// so a width-2 int64 update takes 16 bytes of a run and nothing else. A
// field added beside the value (an op id, a version) doubles this.
func TestUpdateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random")
	}
	const budget = 16
	ids, vals := []int{3, 40}, []int64{1, 2}
	o := snapshot.NewLockFree[int64](64)
	_, got := snapshot.MallocsPerRun(t, func() error { return o.Update(ids, vals) })
	if got > budget+allocSlack {
		t.Errorf("lockfree Update width-2: %.2f B/op, budget %d", got, budget)
	} else {
		t.Logf("lockfree Update width-2: %.2f B/op (budget %d)", got, budget)
	}
}

// TestCellRetentionBytes pins what runs cost in live heap. A register
// keeps its whole run alive, so the live heap per component depends on
// the write pattern. Written once each in order, 16 int64 components
// share one 128 B run: 8 B each. Written so that every run holds one
// component's current value and fifteen stale ones, each component keeps
// one run alive: 128 B. That is the bound — never more than one run per
// component.
func TestCellRetentionBytes(t *testing.T) {
	const n = 4096
	liveHeap() // the first metrics.Read allocates the package's tables
	retained := func(write func(o *snapshot.LockFree[int64], c int) error) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		o := snapshot.NewLockFree[int64](n)
		before := liveHeap()
		for c := 0; c < n; c++ {
			if err := write(o, c); err != nil {
				t.Fatal(err)
			}
		}
		after := liveHeap()
		runtime.KeepAlive(o)
		return float64(after-before) / n
	}
	one := []int64{1}
	sequential := retained(func(o *snapshot.LockFree[int64], c int) error {
		return o.Update([]int{c}, one)
	})
	adversarial := retained(func(o *snapshot.LockFree[int64], c int) error {
		if err := o.Update([]int{c}, one); err != nil {
			return err
		}
		for i := 0; i < 15; i++ {
			if err := o.Update([]int{0}, one); err != nil {
				return err
			}
		}
		return nil
	})
	t.Logf("live heap per component: sequential %.1f B, adversarial %.1f B", sequential, adversarial)
	// One byte per component of slack absorbs the test binary's own heap
	// noise (4 KiB at n=4,096).
	if !raceEnabled && sequential > 8+1 {
		t.Errorf("sequential writes keep %.1f B/component live, want at most 8", sequential)
	}
	if adversarial > 128+1 {
		t.Errorf("adversarial writes keep %.1f B/component live, want at most one 128 B run", adversarial)
	}
}

// liveHeap returns the heap the garbage collector found live, after two
// cycles so that objects freed by the first are gone.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
