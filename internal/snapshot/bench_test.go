package snapshot_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"partialsnapshot/internal/snapshot"
)

const benchComponents = 64

func benchmarkMixed(b *testing.B, obj snapshot.Object[int64], scanWidth int) {
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1)
		rng := rand.New(rand.NewSource(id))
		updateIDs := []int{0}
		vals := []int64{0}
		scanIDs := make([]int, scanWidth)
		var seq int64
		for pb.Next() {
			if rng.Intn(2) == 0 {
				updateIDs[0] = rng.Intn(benchComponents)
				seq++
				vals[0] = id<<32 | seq
				if err := obj.Update(updateIDs, vals); err != nil {
					b.Fatal(err)
				}
			} else {
				base := rng.Intn(benchComponents - scanWidth + 1)
				for i := range scanIDs {
					scanIDs[i] = base + i
				}
				if _, err := obj.PartialScan(scanIDs); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// benchmarkScanOnly measures the pure PartialScan path over a prewritten
// object with a sliding contiguous window — no generator cost beyond one
// Intn per op, so the implementations' scan cores dominate the numbers.
func benchmarkScanOnly(b *testing.B, obj snapshot.Object[int64], scanWidth int) {
	ids := make([]int, benchComponents)
	vals := make([]int64, benchComponents)
	for i := range ids {
		ids[i], vals[i] = i, int64(i+1)
	}
	if err := obj.Update(ids, vals); err != nil {
		b.Fatal(err)
	}
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(worker.Add(1)))
		scanIDs := make([]int, scanWidth)
		for pb.Next() {
			base := rng.Intn(benchComponents - scanWidth + 1)
			for i := range scanIDs {
				scanIDs[i] = base + i
			}
			if _, err := obj.PartialScan(scanIDs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkLockFreeScanWidth8(b *testing.B) {
	benchmarkScanOnly(b, snapshot.NewLockFree[int64](benchComponents), 8)
}

// BenchmarkLockFreeScanWidth32 scans past the stack-resident collect
// width, so its first collect uses the pooled buffer.
func BenchmarkLockFreeScanWidth32(b *testing.B) {
	benchmarkScanOnly(b, snapshot.NewLockFree[int64](benchComponents), 32)
}

func BenchmarkLockFreeMixedWidth1(b *testing.B) {
	benchmarkMixed(b, snapshot.NewLockFree[int64](benchComponents), 1)
}

func BenchmarkLockFreeMixedWidth16(b *testing.B) {
	benchmarkMixed(b, snapshot.NewLockFree[int64](benchComponents), 16)
}

func BenchmarkRWMutexMixedWidth1(b *testing.B) {
	benchmarkMixed(b, snapshot.NewRWMutex[int64](benchComponents), 1)
}

func BenchmarkRWMutexMixedWidth16(b *testing.B) {
	benchmarkMixed(b, snapshot.NewRWMutex[int64](benchComponents), 16)
}

func BenchmarkLockFreeScanWidth1(b *testing.B) {
	benchmarkScanOnly(b, snapshot.NewLockFree[int64](benchComponents), 1)
}

// benchmarkUpdateOnly measures the pure Update path over a sliding window
// of width adjacent components. With no scanner, every update takes the
// quiescent path: each consultation finds a nil head.
func benchmarkUpdateOnly(b *testing.B, obj snapshot.Object[int64], width int) {
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1)
		rng := rand.New(rand.NewSource(id))
		ids, vals := make([]int, width), make([]int64, width)
		var seq int64
		for pb.Next() {
			base := rng.Intn(benchComponents - width + 1)
			seq++
			for i := range ids {
				ids[i], vals[i] = base+i, id<<32|seq
			}
			if err := obj.Update(ids, vals); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkLockFreeUpdateWidth2(b *testing.B) {
	benchmarkUpdateOnly(b, snapshot.NewLockFree[int64](benchComponents), 2)
}

// BenchmarkLockFreeUpdateWidth8 is the width at which the quiescent
// path's skip tally shows: one atomic add per update, not one per
// component.
func BenchmarkLockFreeUpdateWidth8(b *testing.B) {
	benchmarkUpdateOnly(b, snapshot.NewLockFree[int64](benchComponents), 8)
}

// BenchmarkDisjointUpdaters runs two goroutines that each update their own
// single component, b.N times each, so ns/op is one update's time while
// the other component is being written. The pairs share nothing the
// protocol writes except where the layout makes them:
//   - near: components 256 and 264 of 1,024, whose registers and slots
//     sit on different lines;
//   - far: components 256 and 768 of 1,024;
//   - sameRegisterLine: components 33 and 34 of 64, whose registers share
//     a cache line (registers are packed eight to a line).
func BenchmarkDisjointUpdaters(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
		pair [2]int
	}{
		{"near", 1024, [2]int{256, 264}},
		{"far", 1024, [2]int{256, 768}},
		{"sameRegisterLine", 64, [2]int{33, 34}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			o := snapshot.NewLockFree[int64](bc.n)
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, c := range bc.pair {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ids, vals := []int{c}, []int64{0}
					for i := 0; i < b.N; i++ {
						vals[0] = int64(i)
						if err := o.Update(ids, vals); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
