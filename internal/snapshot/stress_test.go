package snapshot_test

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"partialsnapshot/internal/sched"
	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/spec"
	"partialsnapshot/internal/workload"
)

// uniqueVal encodes writer identity and a per-writer sequence number so
// every written value is distinct, which the spec checker relies on.
func uniqueVal(writer, seq int) int64 {
	return int64(writer+1)<<32 | int64(seq+1)
}

// TestStressSpecAdmitsScans runs overlapping writers and partial scanners
// concurrently (run with -race), records the full history, and checks every
// scan against the sequential specification's atomic-cut criterion.
func TestStressSpecAdmitsScans(t *testing.T) {
	const (
		components = 12
		writers    = 4
		scanners   = 4
	)
	opsPerWriter := 400
	scansPerScanner := 200
	if testing.Short() {
		opsPerWriter, scansPerScanner = 80, 40
	}
	for name, obj := range implementations(components) {
		t.Run(name, func(t *testing.T) {
			rec := &spec.Recorder[int64]{}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					for k := 0; k < opsPerWriter; k++ {
						width := 1 + rng.Intn(3)
						ids := randomIDSet(rng, components, width)
						vals := make([]int64, width)
						for i := range vals {
							vals[i] = uniqueVal(w, k*4+i)
						}
						start := rec.Now()
						if err := obj.Update(ids, vals); err != nil {
							t.Errorf("Update%v: %v", ids, err)
							return
						}
						rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(), Comps: ids, Vals: vals})
					}
				}(w)
			}
			for s := 0; s < scanners; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(s) + 1000))
					for k := 0; k < scansPerScanner; k++ {
						width := 1 + rng.Intn(4)
						ids := randomIDSet(rng, components, width)
						start := rec.Now()
						vals, err := obj.PartialScan(ids)
						if err != nil {
							t.Errorf("PartialScan%v: %v", ids, err)
							return
						}
						rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(), Comps: ids, Vals: vals})
					}
				}(s)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			ops := rec.Ops()
			if err := spec.Check(components, ops); err != nil {
				t.Fatalf("history of %d ops rejected by spec: %v", len(ops), err)
			}
		})
	}
}

// TestDisjointSetsDoNotInterfere is the paper's headline property: partial
// scans over one half of the components run concurrently with a storm of
// updates on the other half. Every scan must see untouched (zero) values,
// and the lock-free implementation must complete every scan on its first
// double collect — zero retries, zero helping — because nothing it reads
// ever changes.
func TestDisjointSetsDoNotInterfere(t *testing.T) {
	const components = 16
	updates := 3000
	if testing.Short() {
		updates = 500
	}
	obj := snapshot.NewLockFree[int64](components)
	lower := []int{0, 1, 2, 3, 4, 5, 6, 7}
	upper := []int{8, 9, 10, 11, 12, 13, 14, 15}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := make([]int64, len(lower))
			for k := 0; k < updates; k++ {
				for i := range vals {
					vals[i] = uniqueVal(w, k)
				}
				if err := obj.Update(lower, vals); err != nil {
					t.Errorf("Update: %v", err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < updates; k++ {
				vals, err := obj.PartialScan(upper)
				if err != nil {
					t.Errorf("PartialScan: %v", err)
					return
				}
				for i, v := range vals {
					if v != 0 {
						t.Errorf("scan of untouched component %d saw %d", upper[i], v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	stats := obj.Stats()
	if stats.ScanRetries != 0 || stats.HelpsPosted != 0 || stats.HelpsAdopted != 0 {
		t.Fatalf("disjoint workload caused interference: %+v (want all zero)", stats)
	}
	// Locality is structural AND free: the scanners never announced
	// anywhere, so every updater consultation read a nil slot head and
	// skipped the walk outright. Every (update, component) pair still
	// counts as a consultation — it just lands in WalksSkipped instead of
	// RegistryWalks.
	if stats.RegistryWalks != 0 {
		t.Fatalf("quiescent disjoint workload walked registry slots %d times, want 0 (all skipped): %+v",
			stats.RegistryWalks, stats)
	}
	wantSkips := uint64(4 * updates * len(lower))
	if stats.WalksSkipped != wantSkips {
		t.Fatalf("WalksSkipped = %d, want %d (4 workers x %d updates x %d components)",
			stats.WalksSkipped, wantSkips, updates, len(lower))
	}
	if stats.RecordsVisited != 0 {
		t.Fatalf("disjoint workload visited %d registry records, want 0", stats.RecordsVisited)
	}
}

// TestContendedScansTerminate hammers a tiny component set from both sides
// so scans are maximally obstructed, forcing the helping path to carry
// them. It asserts termination plus spec conformance and that the
// announcement registry holds nothing once the storm ends.
func TestContendedScansTerminate(t *testing.T) {
	const components = 4
	iters := 1500
	if testing.Short() {
		iters = 300
	}
	obj := snapshot.NewLockFree[int64](components)
	rec := &spec.Recorder[int64]{}
	ids := []int{0, 1, 2, 3}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := make([]int64, len(ids))
			for k := 0; k < iters; k++ {
				for i := range vals {
					vals[i] = uniqueVal(w, k*len(ids)+i)
				}
				start := rec.Now()
				if err := obj.Update(ids, vals); err != nil {
					t.Errorf("Update: %v", err)
					return
				}
				rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
					Comps: ids, Vals: append([]int64(nil), vals...)})
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				start := rec.Now()
				vals, err := obj.PartialScan(ids)
				if err != nil {
					t.Errorf("PartialScan: %v", err)
					return
				}
				rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
					Comps: ids, Vals: vals})
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := spec.Check(components, rec.Ops()); err != nil {
		t.Fatalf("contended history rejected by spec: %v", err)
	}
	st := obj.Stats()
	if st.LiveAnnouncements != 0 {
		t.Fatalf("storm left %d live announcements, want 0", st.LiveAnnouncements)
	}
	t.Logf("contended stats: %+v", st)
}

// goschedAt yields the processor at one yield point. Installed at
// PostFirstCollect, it parks every collect between its two passes while
// other goroutines run, so concurrent updates obstruct scans, post help
// and get adopted on any host, one CPU included.
type goschedAt sched.Point

func (g goschedAt) Yield(p sched.Point, _ int) {
	if p == sched.Point(g) {
		runtime.Gosched()
	}
}

// TestAppendScanDstStaysPrivate runs the zipfian hot head with every scan
// appending into its worker's one reused dst behind a fixed prefix, while
// the other workers' updates force retries, help and adoption. Each view
// must land after the untouched prefix and stay as returned until the
// worker's next scan (under -race, any other goroutine writing into a dst
// is also a reported race), and spec.Check must accept the history.
func TestAppendScanDstStaysPrivate(t *testing.T) {
	const components, workers = 8, 4
	opsPerWorker := 2000
	if testing.Short() {
		opsPerWorker = 400
	}
	gen, err := workload.New(workload.Config{Shape: workload.Zipfian, Components: components,
		Workers: workers, ScanFrac: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	obj := snapshot.NewLockFree[int64](components).Instrument(goschedAt(sched.PostFirstCollect))
	rec := &spec.Recorder[int64]{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prefix := int64(-1 - w)
			dst, last := []int64{prefix}, []int64(nil)
			for _, op := range gen.Ops(w, opsPerWorker) {
				start := rec.Now()
				if op.Kind == workload.OpUpdate {
					if err := obj.Update(op.Comps, op.Vals); err != nil {
						t.Errorf("worker %d: Update%v: %v", w, op.Comps, err)
						return
					}
					rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(), Comps: op.Comps, Vals: op.Vals})
					continue
				}
				if !slices.Equal(dst[1:], last) {
					t.Errorf("worker %d: dst holds %v after AppendScan returned %v", w, dst[1:], last)
					return
				}
				var err error
				dst, err = obj.AppendScan(dst[:1], op.Comps)
				end := rec.Now()
				if err != nil || len(dst) != 1+len(op.Comps) || dst[0] != prefix {
					t.Errorf("worker %d: AppendScan(prefix %d, %v) = %v, %v", w, prefix, op.Comps, dst, err)
					return
				}
				last = slices.Clone(dst[1:])
				rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: end, Comps: op.Comps, Vals: last})
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := spec.Check(components, rec.Ops()); err != nil {
		t.Fatalf("history rejected by spec: %v", err)
	}
	st := obj.Stats()
	t.Logf("stats: %+v", st)
	if st.HelpsPosted == 0 || st.HelpsAdopted == 0 || st.LiveAnnouncements != 0 {
		t.Fatalf("stats = %+v, want help posted and adopted, and no live announcement at the end", st)
	}
}

// TestZeroSizeValues runs concurrent updates and scans over a
// LockFree[struct{}]. A cell holds only its value, so every cell of a
// zero-size V may share one address and no double collect can see a
// write; that is sound because V has one value (see the cell comment).
// The test pins what must still hold: every operation completes, every
// scan returns one value per named component, and no announcement leaks.
func TestZeroSizeValues(t *testing.T) {
	const (
		components = 8
		workers    = 4
	)
	ops := 2000
	if testing.Short() {
		ops = 200
	}
	obj := snapshot.NewLockFree[struct{}](components)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for k := 0; k < ops; k++ {
				ids := randomIDSet(rng, components, 1+rng.Intn(3))
				if k%2 == w%2 {
					if err := obj.Update(ids, make([]struct{}, len(ids))); err != nil {
						t.Errorf("Update%v: %v", ids, err)
						return
					}
					continue
				}
				vals, err := obj.PartialScan(ids)
				if err != nil || len(vals) != len(ids) {
					t.Errorf("PartialScan%v: %d values, %v", ids, len(vals), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if vals, err := obj.Scan(); err != nil || len(vals) != components {
		t.Fatalf("Scan: %d values, %v", len(vals), err)
	}
	st := obj.Stats()
	if st.LiveAnnouncements != 0 {
		t.Fatalf("%d live announcements after the run, want 0", st.LiveAnnouncements)
	}
	t.Logf("stats: %+v", st)
}

func randomIDSet(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n)
	ids := make([]int, k)
	copy(ids, perm[:k])
	return ids
}
