package snapshot_test

import (
	"errors"
	"reflect"
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

// parityCounts tallies one implementation's completed work under a shape:
// scans, updates, resizes, and — on resizing shapes only — operations the
// object rejected with ErrBadComponent because they named a component the
// churner's Grow had not installed yet.
type parityCounts struct {
	Scans, Updates, Resizes, Rejects int
}

// runParityWorkload drives every worker's stream concurrently against obj
// (run with -race), recording the history, and returns it with the op
// counts. On resizing shapes, ErrBadComponent from an update or scan is
// tolerated traffic (the op linearizes at its pin, before the Grow that
// adds its component, and is simply not recorded); resize failures are
// always fatal because the single-churner discipline makes every resize
// well-formed.
func runParityWorkload(t *testing.T, obj snapshot.Object[int64], gen *workload.Generator, opsPerWorker int) ([]spec.Op[int64], parityCounts) {
	t.Helper()
	rec := &spec.Recorder[int64]{}
	// Provenance (update op ids, adopted help) comes from the concrete
	// LockFree type; the RWMutex reference degrades to the plain calls.
	lf, hasInfo := obj.(*snapshot.LockFree[int64])
	tolerateRejects := gen.Config().Shape.Resizes()
	var wg sync.WaitGroup
	var counts parityCounts
	var mu sync.Mutex
	for w := 0; w < gen.Config().Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local parityCounts
			for _, op := range gen.Ops(w, opsPerWorker) {
				switch op.Kind {
				case workload.OpUpdate:
					start := rec.Now()
					var id uint64
					var err error
					if hasInfo {
						id, err = lf.UpdateOp(op.Comps, op.Vals)
					} else {
						err = obj.Update(op.Comps, op.Vals)
					}
					if err != nil {
						if tolerateRejects && errors.Is(err, snapshot.ErrBadComponent) {
							local.Rejects++
							continue
						}
						t.Errorf("worker %d: Update%v: %v", w, op.Comps, err)
						return
					}
					local.Updates++
					rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
						Comps: op.Comps, Vals: op.Vals, UpdateID: id})
				case workload.OpScan:
					start := rec.Now()
					var vals []int64
					var info snapshot.ScanInfo
					var err error
					if hasInfo {
						vals, info, err = lf.PartialScanInfo(op.Comps)
					} else {
						vals, err = obj.PartialScan(op.Comps)
					}
					if err != nil {
						if tolerateRejects && errors.Is(err, snapshot.ErrBadComponent) {
							local.Rejects++
							continue
						}
						t.Errorf("worker %d: PartialScan%v: %v", w, op.Comps, err)
						return
					}
					local.Scans++
					rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
						Comps: op.Comps, Vals: vals, AdoptedFrom: info.HelperOp})
				case workload.OpGrow:
					start := rec.Now()
					size, err := obj.Grow(op.Delta)
					if err != nil {
						t.Errorf("worker %d: Grow(%d): %v", w, op.Delta, err)
						return
					}
					local.Resizes++
					rec.Add(spec.Op[int64]{Kind: spec.Grow, Start: start, End: rec.Now(),
						Delta: op.Delta, Size: size})
				}
			}
			mu.Lock()
			counts.Scans += local.Scans
			counts.Updates += local.Updates
			counts.Resizes += local.Resizes
			counts.Rejects += local.Rejects
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return rec.Ops(), counts
}

// TestParityAcrossWorkloadShapes is the concurrent arm: for every shape,
// both implementations absorb the same traffic under -race, every history
// passes the same spec + provenance oracle, every implementation completes
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
					if err := spec.CheckProvenance(ops); err != nil {
						t.Fatalf("%s/%s history rejected by provenance check: %v", shape, impl, err)
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
					if shape.Resizes() {
						// The single churner's resizes are deterministic, so
						// the grow count must account for exactly the
						// resizes the workload issued — no install may be
						// lost or double-counted.
						if got := st.Grows; got != uint64(counts.Resizes) {
							t.Fatalf("%s: %d resizes issued but stats recorded %d installs: %+v",
								shape, counts.Resizes, got, st)
						}
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
			// executed the identical operation mix. On resizing shapes,
			// which ops get rejected depends on how each run's resizes
			// interleave with the workers, so only the deterministic parts
			// are comparable: the resize count and the total attempts.
			base := countsByImpl[parityImpls[0]]
			for _, impl := range parityImpls[1:] {
				c := countsByImpl[impl]
				if shape.Resizes() {
					if c.Resizes != base.Resizes {
						t.Fatalf("resize counts diverged: %s %d, %s %d", parityImpls[0], base.Resizes, impl, c.Resizes)
					}
					baseTotal := base.Scans + base.Updates + base.Resizes + base.Rejects
					total := c.Scans + c.Updates + c.Resizes + c.Rejects
					if want := cfg.Workers * opsPerWorker; baseTotal != want || total != want {
						t.Fatalf("attempt totals diverged from the stream length %d: %s %d, %s %d",
							want, parityImpls[0], baseTotal, impl, total)
					}
				} else if c != base {
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
			// outOfRange mirrors the dynamic-universe contract against the
			// model's current size: an op naming a component at or beyond it
			// must be rejected with ErrBadComponent by EVERY implementation
			// — rejection parity is part of the semantics.
			outOfRange := func(comps []int) bool {
				for _, c := range comps {
					if c >= model.Components() {
						return true
					}
				}
				return false
			}
			wantReject := func(kind string, comps []int, errs map[snapshot.Impl]error) {
				t.Helper()
				for impl, err := range errs {
					if !errors.Is(err, snapshot.ErrBadComponent) {
						t.Fatalf("%s%v names a shrunk component (model size %d) but %s answered %v",
							kind, comps, model.Components(), impl, err)
					}
				}
			}
			wantOK := func(kind string, comps []int, errs map[snapshot.Impl]error) {
				t.Helper()
				for impl, err := range errs {
					if err != nil {
						t.Fatalf("%s %s%v: %v", impl, kind, comps, err)
					}
				}
			}
			for k := 0; k < 100; k++ {
				for w := 0; w < cfg.Workers; w++ {
					op := streams[w][k]
					errs := make(map[snapshot.Impl]error, len(objs))
					switch op.Kind {
					case workload.OpUpdate:
						for impl, obj := range objs {
							errs[impl] = obj.Update(op.Comps, op.Vals)
						}
						if outOfRange(op.Comps) {
							wantReject("Update", op.Comps, errs)
							continue
						}
						wantOK("Update", op.Comps, errs)
						model.Apply(op.Comps, op.Vals)
					case workload.OpScan:
						views := make(map[snapshot.Impl][]int64, len(objs))
						for impl, obj := range objs {
							views[impl], errs[impl] = obj.PartialScan(op.Comps)
						}
						if outOfRange(op.Comps) {
							wantReject("PartialScan", op.Comps, errs)
							continue
						}
						wantOK("PartialScan", op.Comps, errs)
						want := model.Read(op.Comps)
						for impl, got := range views {
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("sequential scan diverged on %v: %s %v, model %v",
									op.Comps, impl, got, want)
							}
						}
					case workload.OpGrow:
						sizes := make(map[snapshot.Impl]int, len(objs))
						for impl, obj := range objs {
							sizes[impl], errs[impl] = obj.Grow(op.Delta)
						}
						nm, errM := model.Grow(op.Delta)
						if errM != nil {
							t.Fatalf("model Grow(%d): %v", op.Delta, errM)
						}
						wantOK("Grow", nil, errs)
						for impl, size := range sizes {
							if size != nm {
								t.Fatalf("Grow(%d) sizes diverged: %s %d, model %d", op.Delta, impl, size, nm)
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
