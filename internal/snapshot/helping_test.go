package snapshot

import (
	"sync"
	"sync/atomic"
	"testing"

	"partialsnapshot/internal/sched"
	"partialsnapshot/internal/spec"
)

// TestHelpAdoptionScripted drives the helping mechanism end-to-end under a
// fully scripted schedule: a scanner is obstructed in both its fast-path and
// announced double collects, the obstructing updater posts help before its
// store, and the scanner adopts the helped view — with provenance tying the
// view back to the exact update that posted it.
func TestHelpAdoptionScripted(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](4).Instrument(ctl)
	if err := o.Update([]int{0, 1}, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}

	var vals []int64
	var info ScanInfo
	ctl.Spawn("scanner", func() {
		var err error
		vals, info, err = o.PartialScanInfo([]int{0, 1})
		if err != nil {
			t.Errorf("PartialScanInfo: %v", err)
		}
	})

	// Obstruct the fast-path double collect.
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatal("scanner finished before its first collect gap")
	}
	if err := o.Update([]int{0}, []int64{100}); err != nil {
		t.Fatal(err)
	}
	// Scanner fails, announces, parks between the announced loop's collects.
	if _, ok := ctl.StepUntil("scanner", sched.PostAnnounce); !ok {
		t.Fatal("scanner finished without announcing")
	}
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatal("scanner finished before its announced collect gap")
	}
	// The obstructing update must now help before it stores: its embedded
	// fast-path collect is clean (the scanner is parked), so help lands.
	helperOp, err := o.UpdateOp([]int{0}, []int64{101})
	if err != nil {
		t.Fatal(err)
	}
	// Scanner's second collect fails, finds the help, adopts it.
	if _, ok := ctl.StepUntil("scanner", sched.PreAdopt); !ok {
		t.Fatal("scanner finished without adopting help")
	}
	ctl.RunToCompletion("scanner")

	// The adopted view was collected by the helper before its 101 store.
	if vals[0] != 100 || vals[1] != 2 {
		t.Fatalf("adopted view = %v, want [100 2]", vals)
	}
	if !info.Adopted || info.HelperOp != helperOp || info.Depth != 1 {
		t.Fatalf("info = %+v, want adoption from op %d at depth 1", info, helperOp)
	}
	st := o.Stats()
	if st.HelpsPosted != 1 || st.HelpsAdopted != 1 || st.ScanRetries < 2 {
		t.Fatalf("stats = %+v, want 1 help posted, 1 adopted, >=2 retries", st)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("LiveAnnouncements = %d after quiescence, want 0", st.LiveAnnouncements)
	}
	// The record must have been retired and the next walk of each of its
	// slots must physically unlink its enrollment there.
	if err := o.Update([]int{0, 1}, []int64{999, 998}); err != nil {
		t.Fatal(err)
	}
	if n := o.registryLen(); n != 0 {
		t.Fatalf("announcement registry still holds %d enrollments", n)
	}
}

// TestUpdaterHelpsOnlyIntersectingScans checks locality of helping: an
// announced scan is helped by an overlapping update and ignored by a
// disjoint one, and the posted view carries the helper's op id.
func TestUpdaterHelpsOnlyIntersectingScans(t *testing.T) {
	o := NewLockFree[int64](8)
	rec := newRecord(o.uni.Load(), []int{0, 1}, 0)
	o.announce(rec)

	if err := o.Update([]int{5, 6}, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if rec.help.Load() != nil {
		t.Fatal("disjoint update posted help")
	}
	op, err := o.UpdateOp([]int{1}, []int64{11})
	if err != nil {
		t.Fatal(err)
	}
	h := rec.help.Load()
	if h == nil {
		t.Fatal("overlapping update did not post help")
	}
	// Help was collected before the cells were written, so it shows the
	// pre-update state of components 0 and 1, stamped with the helper's id.
	if h.vals[0] != 0 || h.vals[1] != 0 {
		t.Fatalf("help view = %v, want pre-update [0 0]", h.vals)
	}
	if h.by != op || h.depth != 1 {
		t.Fatalf("help provenance = by %d depth %d, want by %d depth 1", h.by, h.depth, op)
	}
	o.retire(rec)
	if st := o.Stats(); st.LiveAnnouncements != 0 {
		t.Fatalf("LiveAnnouncements = %d after retire, want 0", st.LiveAnnouncements)
	}
}

// TestOneUpdaterHelpsMultipleScanners parks two scanners on disjoint
// announced sets and lets a single batch update that intersects both post
// help to each in one stack walk.
func TestOneUpdaterHelpsMultipleScanners(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](4).Instrument(ctl)
	if err := o.Update([]int{0, 1, 2, 3}, []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}

	infos := make([]ScanInfo, 2)
	views := make([][]int64, 2)
	spawnScanner := func(i int, ids []int, obstruct int, obstructVal int64) {
		name := []string{"s0", "s1"}[i]
		ctl.Spawn(name, func() {
			var err error
			views[i], infos[i], err = o.PartialScanInfo(ids)
			if err != nil {
				t.Errorf("PartialScanInfo%v: %v", ids, err)
			}
		})
		if _, ok := ctl.StepUntil(name, sched.PostFirstCollect); !ok {
			t.Fatalf("%s finished early", name)
		}
		if err := o.Update([]int{obstruct}, []int64{obstructVal}); err != nil {
			t.Fatal(err)
		}
		if _, ok := ctl.StepUntil(name, sched.PostAnnounce); !ok {
			t.Fatalf("%s finished without announcing", name)
		}
		if _, ok := ctl.StepUntil(name, sched.PostFirstCollect); !ok {
			t.Fatalf("%s finished before its announced collect gap", name)
		}
	}
	spawnScanner(0, []int{0, 1}, 0, 10)
	// The second scanner's obstruction ({2}) is disjoint from s0's announced
	// set, so it must not help s0.
	spawnScanner(1, []int{2, 3}, 2, 30)
	if st := o.Stats(); st.HelpsPosted != 0 {
		t.Fatalf("disjoint obstructions posted help: %+v", st)
	}

	// One batch intersecting both announced sets helps both records, then
	// obstructs both scanners with its stores.
	batchOp, err := o.UpdateOp([]int{0, 2}, []int64{11, 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s0", "s1"} {
		if _, ok := ctl.StepUntil(name, sched.PreAdopt); !ok {
			t.Fatalf("%s finished without adopting", name)
		}
		ctl.RunToCompletion(name)
	}

	if views[0][0] != 10 || views[0][1] != 2 {
		t.Fatalf("s0 adopted %v, want [10 2]", views[0])
	}
	if views[1][0] != 30 || views[1][1] != 4 {
		t.Fatalf("s1 adopted %v, want [30 4]", views[1])
	}
	for i, info := range infos {
		if !info.Adopted || info.HelperOp != batchOp {
			t.Fatalf("s%d info = %+v, want adoption from batch op %d", i, info, batchOp)
		}
	}
	st := o.Stats()
	if st.HelpsPosted != 2 || st.HelpsAdopted != 2 {
		t.Fatalf("stats = %+v, want 2 helps posted and adopted", st)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("LiveAnnouncements = %d after quiescence, want 0", st.LiveAnnouncements)
	}
}

// TestHalfAppliedBatchObservable pins down the documented batch semantics:
// a multi-component Update is a sequence of per-component atomic stores,
// and a partial scan landing between two stores observes the batch half
// applied. The recorded history is still accepted by the spec, which
// models exactly these semantics.
func TestHalfAppliedBatchObservable(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)
	rec := &spec.Recorder[int64]{}

	var batchOp uint64
	uStart := rec.Now()
	ctl.Spawn("updater", func() {
		var err error
		batchOp, err = o.UpdateOp([]int{0, 1}, []int64{7, 8})
		if err != nil {
			t.Errorf("UpdateOp: %v", err)
		}
	})
	// Park after component 0's store, before component 1's.
	if arg, ok := ctl.StepUntil("updater", sched.PreCellStore); !ok || arg != 0 {
		t.Fatalf("first store park arg = %d (ok=%v), want 0", arg, ok)
	}
	if p, arg, ok := ctl.Step("updater"); !ok || p != sched.PreCellStore || arg != 1 {
		t.Fatalf("second park = %v(%d) ok=%v, want pre-cell-store(1)", p, arg, ok)
	}

	sStart := rec.Now()
	mid, err := o.PartialScan([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: sStart, End: rec.Now(), Comps: []int{0, 1}, Vals: mid})
	if mid[0] != 7 || mid[1] != 0 {
		t.Fatalf("mid-batch scan = %v, want half-applied [7 0]", mid)
	}

	ctl.RunToCompletion("updater")
	rec.Add(spec.Op[int64]{Kind: spec.Update, Start: uStart, End: rec.Now(),
		Comps: []int{0, 1}, Vals: []int64{7, 8}, UpdateID: batchOp})
	after, err := o.PartialScan([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != 7 || after[1] != 8 {
		t.Fatalf("post-batch scan = %v, want [7 8]", after)
	}
	if err := spec.Check(2, rec.Ops()); err != nil {
		t.Fatalf("half-applied batch history rejected by spec: %v", err)
	}
}

// obstructingSched is a Scheduler that is deliberately NOT a Controller: it
// never parks anybody. It performs an overlapping Update inside every
// level-0 double-collect gap, executed by whatever goroutine is scanning,
// so scanner goroutines stay genuinely parallel and the help-CAS, adoption
// and stack-unlink paths race for real under the race detector — coverage a
// serialised controller script cannot provide.
type obstructingSched struct {
	o *LockFree[int64]
	n atomic.Int64
}

func (s *obstructingSched) Yield(p sched.Point, arg int) {
	if p == sched.PostFirstCollect && arg == 0 {
		// Updates triggered here re-enter Yield only at other points or at
		// embedded levels (arg >= 1), so there is no recursion.
		if err := s.o.Update([]int{0}, []int64{s.n.Add(1)}); err != nil {
			panic(err)
		}
	}
}

// TestConcurrentAdoptionUnderForcedObstruction runs many parallel scanners
// whose every level-0 double collect is obstructed, so no scan can ever
// complete a clean collect of its own: each must terminate by adopting
// help. This exercises announce/help/adopt/unlink under true goroutine
// concurrency (run with -race); the scripted tests above cover the same
// paths deterministically but serialised.
func TestConcurrentAdoptionUnderForcedObstruction(t *testing.T) {
	o := NewLockFree[int64](4)
	o.Instrument(&obstructingSched{o: o})

	const scanners, scansEach = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < scanners; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < scansEach; k++ {
				_, info, err := o.PartialScanInfo([]int{0, 1})
				if err != nil {
					t.Errorf("PartialScanInfo: %v", err)
					return
				}
				if !info.Adopted {
					t.Errorf("scan completed without adoption despite forced obstruction: %+v", info)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := o.Stats()
	if st.HelpsAdopted < scanners*scansEach || st.HelpsPosted == 0 {
		t.Fatalf("forced obstruction under-exercised helping: %+v", st)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("forced obstruction leaked %d live announcements", st.LiveAnnouncements)
	}
	t.Logf("forced-obstruction stats: %+v", st)
}

// TestAnnouncementRegistryHygiene checks that retired records are lazily
// unlinked from each slot by later walks of that slot, that disjoint
// updates neither unlink nor observe anything, and that the
// LiveAnnouncements gauge tracks announce/retire exactly — both in a
// scripted sequence and after a real contention storm.
func TestAnnouncementRegistryHygiene(t *testing.T) {
	o := NewLockFree[int64](8)
	recs := make([]*scanRecord[int64], 3)
	for i := range recs {
		recs[i] = newRecord(o.uni.Load(), []int{0, 1}, 0)
		o.announce(recs[i])
	}
	// Each record is enrolled once per named component.
	if n, live := o.registryLen(), o.Stats().LiveAnnouncements; n != 6 || live != 3 {
		t.Fatalf("after 3 announces of {0,1}: registryLen=%d live=%d, want 6/3", n, live)
	}
	// Retire the middle record: the gauge drops immediately, both of its
	// enrollments stay until each slot's next walk.
	o.retire(recs[1])
	if live := o.Stats().LiveAnnouncements; live != 2 {
		t.Fatalf("live = %d after one retire, want 2", live)
	}
	// A disjoint update consults only its own slot: it unlinks nothing and
	// never even observes the records (the sharded-registry locality).
	if err := o.Update([]int{7}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	if n, st := o.registryLen(), o.Stats(); n != 6 || st.RecordsVisited != 0 {
		t.Fatalf("disjoint walk: registryLen=%d visited=%d, want 6 enrollments and 0 visits", n, st.RecordsVisited)
	}
	// An update on component 0 walks slot 0 only: it unlinks the retired
	// enrollment there (slot 1's copy stays) and helps the two live records.
	if err := o.Update([]int{0}, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if l0, l1 := o.slotLen(0), o.slotLen(1); l0 != 2 || l1 != 3 {
		t.Fatalf("after slot-0 walk: slotLen(0)=%d slotLen(1)=%d, want 2 and 3", l0, l1)
	}
	if st := o.Stats(); st.HelpsPosted != 2 {
		t.Fatalf("slot-0 walk posted %d helps, want 2 (both live records)", st.HelpsPosted)
	}
	o.retire(recs[0])
	o.retire(recs[2])
	if err := o.Update([]int{0, 1}, []int64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if n, live := o.registryLen(), o.Stats().LiveAnnouncements; n != 0 || live != 0 {
		t.Fatalf("after all retired + both slots walked: registryLen=%d live=%d, want 0/0", n, live)
	}

	// Contention storm (run with -race): scanners and updaters hammer a tiny
	// component set; afterwards no record may remain live and one walk must
	// drain the stack completely.
	storm := NewLockFree[int64](2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 300; k++ {
				if err := storm.Update([]int{0, 1}, []int64{int64(w), int64(k)}); err != nil {
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
			for k := 0; k < 300; k++ {
				if _, err := storm.PartialScan([]int{0, 1}); err != nil {
					t.Errorf("PartialScan: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if live := storm.Stats().LiveAnnouncements; live != 0 {
		t.Fatalf("storm leaked %d live announcements", live)
	}
	if err := storm.Update([]int{0, 1}, []int64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if n := storm.registryLen(); n != 0 {
		t.Fatalf("registry holds %d enrollments after quiescent walks, want 0", n)
	}
	t.Logf("storm stats: %+v", storm.Stats())
}
