package snapshot_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/spec"
	"partialsnapshot/internal/workload"
)

// The parity suite runs the RWMutex reference and the LockFree object
// through IDENTICAL workload shapes — same generator, same seed, same
// per-worker op streams — and holds both to the same spec oracle, then
// diffs what each implementation's invariants promise: equal op counts,
// equal sequential semantics and the lock-free Stats hygiene per shape.
//
// Every object is built through snapshot.New — the parity matrix IS the
// factory's implementation list, so a new implementation registered there
// joins the suite.

// parityImpls is the full implementation matrix; newParityObject builds
// one cell of it through the factory.
var parityImpls = snapshot.Impls()

func newParityObject(t *testing.T, impl snapshot.Impl, n int) snapshot.Object[int64] {
	t.Helper()
	obj, err := snapshot.New[int64](impl, n)
	if err != nil {
		t.Fatalf("New(%s, %d): %v", impl, n, err)
	}
	return obj
}

// parityCfg sizes one shape's parity cell; widths are explicit where the
// tiny object makes shape defaults infeasible.
func parityCfg(shape workload.Shape) workload.Config {
	cfg := workload.Config{Shape: shape, Components: 8, Workers: 4, ScanFrac: -1, Seed: 11}
	if shape == workload.Partitioned {
		cfg.ScanWidth, cfg.UpdateWidth = 2, 1 // pools of 2
	}
	return cfg
}

// parityCounts tallies one implementation's completed work under a shape.
type parityCounts struct {
	Scans, Updates int
}

// runParityWorkload drives every worker's stream concurrently against obj
// (run with -race), recording the history, and returns it with the op
// counts. Each worker scans into one reused dst and records a copy of
// each view. Every op names valid components, so any error is fatal.
func runParityWorkload(t *testing.T, obj snapshot.Object[int64], gen *workload.Generator, opsPerWorker int) ([]spec.Op[int64], parityCounts) {
	t.Helper()
	rec := &spec.Recorder[int64]{}
	var wg sync.WaitGroup
	var counts parityCounts
	var mu sync.Mutex
	for w := 0; w < gen.Config().Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local parityCounts
			var dst []int64
			for _, op := range gen.Ops(w, opsPerWorker) {
				switch op.Kind {
				case workload.OpUpdate:
					start := rec.Now()
					if err := obj.Update(op.Comps, op.Vals); err != nil {
						t.Errorf("worker %d: Update%v: %v", w, op.Comps, err)
						return
					}
					local.Updates++
					rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
						Comps: op.Comps, Vals: op.Vals})
				case workload.OpScan:
					start := rec.Now()
					var err error
					dst, err = obj.AppendScan(dst[:0], op.Comps)
					if err != nil {
						t.Errorf("worker %d: AppendScan%v: %v", w, op.Comps, err)
						return
					}
					end := rec.Now()
					local.Scans++
					rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: end,
						Comps: op.Comps, Vals: slices.Clone(dst)})
				}
			}
			mu.Lock()
			counts.Scans += local.Scans
			counts.Updates += local.Updates
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return rec.Ops(), counts
}

// TestParityAcrossWorkloadShapes is the concurrent arm: for every shape,
// both implementations absorb the same traffic under -race, every history
// passes the same spec oracle, every implementation completes
// the same operation mix, and the lock-free Stats invariants hold per
// shape — hygiene everywhere and structural non-interference when the
// shape is partitioned.
func TestParityAcrossWorkloadShapes(t *testing.T) {
	opsPerWorker := 300
	if testing.Short() {
		opsPerWorker = 60
	}
	for _, shape := range workload.Shapes() {
		t.Run(string(shape), func(t *testing.T) {
			cfg := parityCfg(shape)
			countsByImpl := map[snapshot.Impl]parityCounts{}
			for _, impl := range parityImpls {
				t.Run(string(impl), func(t *testing.T) {
					gen, err := workload.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					obj := newParityObject(t, impl, cfg.Components)
					ops, counts := runParityWorkload(t, obj, gen, opsPerWorker)
					if t.Failed() {
						return
					}
					countsByImpl[impl] = counts
					if err := spec.Check(cfg.Components, ops); err != nil {
						t.Fatalf("%s/%s history of %d ops rejected by spec: %v", shape, impl, len(ops), err)
					}
					so, ok := obj.(snapshot.StatsReader)
					if !ok {
						// The reference implementation intentionally has no
						// Stats surface; the parity claim is that it needs
						// none.
						return
					}
					st := so.Stats()
					if st.LiveAnnouncements != 0 {
						t.Fatalf("%s leaked %d live announcements", shape, st.LiveAnnouncements)
					}
					// Consultations split into walks (non-nil slot head) and
					// nil-head skips; either way every update consults.
					if st.RegistryWalks+st.WalksSkipped == 0 {
						t.Fatalf("%s updaters never consulted the registry: %+v", shape, st)
					}
					if shape == workload.UpdateHeavy {
						// Pure updates: no scan ever announces, so every
						// consultation reads a nil slot head and skips its
						// walk — the quiescent fast path, reconciled exactly.
						want := uint64(counts.Updates * gen.Config().UpdateWidth)
						if st.RegistryWalks != 0 || st.WalksSkipped != want {
							t.Fatalf("update-heavy: RegistryWalks = %d, WalksSkipped = %d, want 0 and %d (%d updates x width %d)",
								st.RegistryWalks, st.WalksSkipped, want, counts.Updates, gen.Config().UpdateWidth)
						}
					}
					if shape == workload.Partitioned {
						// Single-worker partitions: no announcement is ever
						// live where a foreign (or even a concurrent own)
						// walk looks.
						if st.RecordsVisited != 0 || st.HelpsPosted != 0 || st.ScanRetries != 0 {
							t.Fatalf("partitioned workload interfered: %+v", st)
						}
					}
					t.Logf("%s/%s: %d ops, %d retries, %d helps",
						shape, impl, len(ops), st.ScanRetries, st.HelpsPosted)
				})
			}
			if t.Failed() {
				return
			}
			if len(countsByImpl) < len(parityImpls) {
				// A -run filter selected a subset of implementations; there
				// is nothing (or only a partial matrix) to diff.
				return
			}
			// Same generator, same seed ⇒ every implementation must have
			// executed the identical operation mix.
			base := countsByImpl[parityImpls[0]]
			for _, impl := range parityImpls[1:] {
				if c := countsByImpl[impl]; c != base {
					t.Fatalf("op mix diverged between implementations: %s %v, %s %v",
						parityImpls[0], base, impl, c)
				}
			}
		})
	}
}

// TestUpdateHeavyTakesQuiescentPath runs the update-heavy shape alone on
// the lock-free object and checks its fingerprint: every streamed op is an
// update, and since no scan ever announces, every consultation reads a nil
// slot head and skips its walk — the quiescent fast path, with no walk and
// no skip lost or double-counted, and nothing left in the registry.
func TestUpdateHeavyTakesQuiescentPath(t *testing.T) {
	opsPerWorker := 300
	if testing.Short() {
		opsPerWorker = 60
	}
	cfg := parityCfg(workload.UpdateHeavy)
	gen, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj := newParityObject(t, snapshot.ImplLockFree, cfg.Components)
	_, counts := runParityWorkload(t, obj, gen, opsPerWorker)
	if t.Failed() {
		return
	}
	if counts.Scans != 0 || counts.Updates != cfg.Workers*opsPerWorker {
		t.Fatalf("update-heavy ran %d scans and %d updates, want 0 and %d", counts.Scans, counts.Updates, cfg.Workers*opsPerWorker)
	}
	st := obj.(snapshot.StatsReader).Stats()
	want := uint64(counts.Updates * gen.Config().UpdateWidth)
	if st.RegistryWalks != 0 || st.WalksSkipped != want {
		t.Fatalf("RegistryWalks = %d, WalksSkipped = %d, want 0 and %d (%d updates x width %d)",
			st.RegistryWalks, st.WalksSkipped, want, counts.Updates, gen.Config().UpdateWidth)
	}
	if st.LiveAnnouncements != 0 || st.HelpsPosted != 0 || st.RecordsVisited != 0 {
		t.Fatalf("pure update traffic touched the registry: %+v", st)
	}
}

// TestParitySequentialSemantics is the deterministic arm: the same op
// stream applied round-robin, one op at a time, to every implementation of
// the factory matrix and the sequential model, which must all stay in
// byte-identical states and answer every scan identically — batch-
// atomicity differences between the implementations are invisible without
// concurrency, so any divergence here is a plain bug.
func TestParitySequentialSemantics(t *testing.T) {
	for _, shape := range workload.Shapes() {
		t.Run(string(shape), func(t *testing.T) {
			cfg := parityCfg(shape)
			gen, err := workload.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			objs := make(map[snapshot.Impl]snapshot.Object[int64], len(parityImpls))
			for _, impl := range parityImpls {
				objs[impl] = newParityObject(t, impl, cfg.Components)
			}
			model := spec.NewModel[int64](cfg.Components)
			streams := make([][]workload.Op, cfg.Workers)
			for w := range streams {
				streams[w] = gen.Ops(w, 100)
			}
			wantOK := func(kind string, comps []int, errs map[snapshot.Impl]error) {
				t.Helper()
				for impl, err := range errs {
					if err != nil {
						t.Fatalf("%s %s%v: %v", impl, kind, comps, err)
					}
				}
			}
			// Each implementation scans into its own reused dst.
			dsts := make(map[snapshot.Impl][]int64, len(objs))
			for k := 0; k < 100; k++ {
				for w := 0; w < cfg.Workers; w++ {
					op := streams[w][k]
					errs := make(map[snapshot.Impl]error, len(objs))
					switch op.Kind {
					case workload.OpUpdate:
						for impl, obj := range objs {
							errs[impl] = obj.Update(op.Comps, op.Vals)
						}
						wantOK("Update", op.Comps, errs)
						model.Apply(op.Comps, op.Vals)
					case workload.OpScan:
						for impl, obj := range objs {
							dsts[impl], errs[impl] = obj.AppendScan(dsts[impl][:0], op.Comps)
						}
						wantOK("AppendScan", op.Comps, errs)
						want := model.Read(op.Comps)
						for impl, got := range dsts {
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("sequential scan diverged on %v: %s %v, model %v",
									op.Comps, impl, got, want)
							}
						}
					}
				}
			}
			finals := make(map[snapshot.Impl][]int64, len(objs))
			for impl, obj := range objs {
				finals[impl], err = obj.Scan()
				if err != nil {
					t.Fatalf("%s final Scan: %v", impl, err)
				}
			}
			wantFinal := model.Read(allComps(model.Components()))
			for impl, got := range finals {
				if !reflect.DeepEqual(got, wantFinal) {
					t.Fatalf("final state diverged: %s %v, model %v", impl, got, wantFinal)
				}
			}
			// One op at a time: no scan ever overlaps an update, so no
			// collect is ever obstructed and nobody ever helps.
			lfStats := objs[snapshot.ImplLockFree].(snapshot.StatsReader).Stats()
			if lfStats.ScanRetries != 0 || lfStats.HelpsPosted != 0 {
				t.Fatalf("sequential workload triggered the concurrency machinery: %+v", lfStats)
			}
		})
	}
}

// allComps is 0..n-1, the full-scan component list the model reads.
func allComps(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
