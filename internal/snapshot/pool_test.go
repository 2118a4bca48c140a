package snapshot

import (
	"fmt"
	"sync"
	"testing"

	"partialsnapshot/internal/sched"
	"partialsnapshot/internal/spec"
)

// These tests script the record-reuse races the pool protocol (pool.go)
// exists to survive: a walker holding a stale path to a record that
// retires and recycles under it, a helper whose pin must keep a record out
// of the pool, and — mutation arm — the linearizability violation that
// materialises the moment a record returns to the pool while a helper can
// still reach it.

// TestReuseStaleWalkerRejectsRecycledRecord parks an updater inside its
// slot walk, right after it loaded the enrollment of a live record, then
// retires that record and recycles it for a scan of a DIFFERENT component
// set. The resumed walker must treat the enrollment as stale (generation
// mismatch) — unlink it, visit nothing, help nobody — while the record's
// new incarnation stays fully helpable through its own slot.
func TestReuseStaleWalkerRejectsRecycledRecord(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)

	r1 := o.acquireRecord(o.uni.Load(), []int{0, 1}, 0)
	o.announce(r1)

	ctl.Spawn("walker", func() {
		if err := o.Update([]int{0}, []int64{7}); err != nil {
			t.Errorf("walker: %v", err)
		}
	})
	if arg, ok := ctl.StepUntil("walker", sched.PreVisit); !ok || arg != 0 {
		t.Fatalf("walker parked at PreVisit(%d) ok=%v, want arg 0", arg, ok)
	}

	// Retire r1 out from under the parked walker and recycle it for a scan
	// that names only component 1.
	o.retire(r1)
	r2 := o.acquireRecord(o.uni.Load(), []int{1}, 0)
	if r2 != r1 {
		t.Fatal("expected the retired record to be recycled")
	}
	if got := o.Stats().RecordReuses; got != 1 {
		t.Fatalf("RecordReuses = %d, want 1", got)
	}
	o.announce(r2)

	// The walker resumes holding slot 0's stale enrollment: generation
	// mismatch, so it must unlink without visiting — helping r2 through
	// slot 0 would help a scan that never announced there.
	ctl.RunToCompletion("walker")
	if st := o.Stats(); st.RecordsVisited != 0 || st.HelpsPosted != 0 {
		t.Fatalf("stale walker visited or helped the recycled record: %+v", st)
	}
	if n := o.slotLen(0); n != 0 {
		t.Fatalf("slotLen(0) = %d after the stale walk, want 0", n)
	}
	if r2.help.Load() != nil {
		t.Fatal("recycled record was helped through a slot it never announced")
	}

	// The new incarnation is a first-class citizen of its own slot: an
	// intersecting update pins it, helps it, and posts a view.
	if err := o.Update([]int{1}, []int64{9}); err != nil {
		t.Fatal(err)
	}
	if r2.help.Load() == nil {
		t.Fatal("recycled record was never helped through its announced slot")
	}
	if st := o.Stats(); st.RecordsVisited != 1 || st.HelpsPosted != 1 {
		t.Fatalf("stats after intersecting update: %+v, want 1 visit and 1 help", st)
	}
	o.retire(r2)
	if live := o.Stats().LiveAnnouncements; live != 0 {
		t.Fatalf("LiveAnnouncements = %d after retire, want 0", live)
	}
}

// TestReuseBlockedWhileHelperPinned proves the "no helper can still read
// it" half of the pool rule: a record whose owner retired while a helper
// is still pinned must NOT return to the pool until that helper lets go.
func TestReuseBlockedWhileHelperPinned(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)
	pool := o.records.(*scriptedRecordPool[int64])

	r1 := o.acquireRecord(o.uni.Load(), []int{0, 1}, 0)
	o.announce(r1)

	// The helper pins r1 during its slot walk and parks just before its
	// embedded scan.
	ctl.Spawn("helper", func() {
		if err := o.Update([]int{0}, []int64{5}); err != nil {
			t.Errorf("helper: %v", err)
		}
	})
	if _, ok := ctl.StepUntil("helper", sched.PreHelpScan); !ok {
		t.Fatal("helper finished before pinning the record")
	}

	// Owner retires: the record is done, but the helper's pin holds it out
	// of the pool — an acquire now must allocate fresh.
	o.retire(r1)
	if n := pool.len(); n != 0 {
		t.Fatalf("pool holds %d records while a helper is pinned, want 0", n)
	}
	r2 := o.acquireRecord(o.uni.Load(), []int{0}, 0)
	if r2 == r1 {
		t.Fatal("record recycled while a helper still held it")
	}

	// The helper drains: its embedded scan finds the target done or posts
	// harmlessly onto the retired record, and its unpin — the last
	// reference — finally pools r1.
	ctl.RunToCompletion("helper")
	if n := pool.len(); n != 1 {
		t.Fatalf("pool holds %d records after the last pin dropped, want 1", n)
	}
	r3 := o.acquireRecord(o.uni.Load(), []int{1}, 0)
	if r3 != r1 {
		t.Fatal("record not recycled after the last pin dropped")
	}

	// r2 and r3 were never announced; release them the way their owners
	// would (done, then drop the owner reference) without touching the
	// announcement gauge.
	for _, r := range []*scanRecord[int64]{r2, r3} {
		r.done.Store(true)
		o.releaseRef(r)
	}
}

// eagerReleaseScenario scripts the premature-reuse bug end to end and
// returns what the linearizability checker thinks of the resulting
// history. With eager=true, retire returns the record to the pool while a
// helper (parked before its help CAS) still holds it; the next scanner
// recycles the record, the stale helper's CAS lands on the new
// incarnation, and the scanner adopts a view collected BEFORE its
// interval began — the exact ABA the pin rule forbids. With eager=false
// the identical script must produce a clean history.
//
// Timeline (components {0,1} start at {10,20}; all parks are scripted):
//
//	s1 announces {0,1} after an obstruction           state {11,20}
//	h (update 0→12) pins s1's record, collects
//	  {11,20}, parks before posting
//	s1 completes clean; eager arm pools its record
//	state moves on                                    state {13,20}
//	ob (update 0→15) passes its walk, parks pre-store
//	s2 scans {0,1}: obstructed by 0→14, announces —
//	  eager arm recycles s1's record — first
//	  announced collect sees {14,20}
//	ob stores (owes nothing: walked pre-announce)     state {15,20}
//	h resumes: posts {11,20} — onto the RECYCLED
//	  record in the eager arm — then stores           state {12,20}
//	s2's collect fails; eager arm finds "help" {11,20}
//	  and adopts a view from before its interval
func eagerReleaseScenario(t *testing.T, eager bool) (scanInfo ScanInfo, checkErr error) {
	t.Helper()
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)
	o.mut.unsafeEagerRelease = eager
	rec := &spec.Recorder[int64]{}
	var mu sync.Mutex
	var opErrs []error
	fail := func(err error) {
		mu.Lock()
		opErrs = append(opErrs, err)
		mu.Unlock()
	}
	// doUpdate runs an update to completion on the (uncontrolled) test
	// goroutine; spawnUpdate launches one as a controlled actor.
	doUpdate := func(ids []int, vals []int64) {
		t.Helper()
		start := rec.Now()
		id, err := o.UpdateOp(ids, vals)
		if err != nil {
			t.Fatal(err)
		}
		rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
			Comps: ids, Vals: vals, UpdateID: id})
	}
	spawnUpdate := func(name string, ids []int, vals []int64) {
		ctl.Spawn(name, func() {
			start := rec.Now()
			id, err := o.UpdateOp(ids, vals)
			if err != nil {
				fail(fmt.Errorf("%s: %w", name, err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
				Comps: ids, Vals: vals, UpdateID: id})
		})
	}
	spawnScan := func(name string, into *ScanInfo) {
		ctl.Spawn(name, func() {
			start := rec.Now()
			vals, si, err := o.PartialScanInfo([]int{0, 1})
			if err != nil {
				fail(fmt.Errorf("%s: %w", name, err))
				return
			}
			*into = si
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
				Comps: []int{0, 1}, Vals: vals, AdoptedFrom: si.HelperOp})
		})
	}
	mustPark := func(name string, p sched.Point) {
		t.Helper()
		if _, ok := ctl.StepUntil(name, p); !ok {
			t.Fatalf("%s finished before parking at %s", name, p)
		}
	}

	doUpdate([]int{0, 1}, []int64{10, 20})

	// s1 into its announced state.
	var s1Info ScanInfo
	spawnScan("s1", &s1Info)
	mustPark("s1", sched.PostFirstCollect)
	doUpdate([]int{0}, []int64{11}) // obstruct s1's fast path
	mustPark("s1", sched.PostAnnounce)

	// h pins s1's record, completes its embedded collect ({11,20}) and
	// parks immediately before the CAS that publishes it.
	spawnUpdate("h", []int{0}, []int64{12})
	mustPark("h", sched.PreHelpPost)

	// s1 completes by a clean double collect and retires its record. In
	// the eager arm the record goes straight back to the pool, ignoring
	// h's pin.
	ctl.RunToCompletion("s1")

	// Move the state past h's captured view, so that view can no longer
	// coexist with anything a later scan may legally return.
	doUpdate([]int{0}, []int64{13})

	// ob passes its registry walk while nothing is announced, parking
	// before its store: the classic pre-walk updater that owes no help.
	spawnUpdate("ob", []int{0}, []int64{15})
	mustPark("ob", sched.PreCellStore)

	// s2: obstructed out of its fast path, announces (recycling s1's
	// record in the eager arm), and completes its first announced collect.
	spawnScan("s2", &scanInfo)
	mustPark("s2", sched.PostFirstCollect)
	doUpdate([]int{0}, []int64{14})
	mustPark("s2", sched.PostAnnounce)
	mustPark("s2", sched.PostFirstCollect)

	// ob obstructs s2 without helping; h publishes its stale view and
	// stores; s2's double collect fails and it goes looking for help.
	ctl.RunToCompletion("ob")
	ctl.RunToCompletion("h")
	ctl.RunToCompletion("s2")

	mu.Lock()
	defer mu.Unlock()
	if len(opErrs) > 0 {
		t.Fatal(opErrs[0])
	}
	return scanInfo, spec.Check(2, rec.Ops())
}

// TestMutationEagerPoolReturnIsConvicted runs the premature-reuse script
// against the mutated object (retire pools the record despite helper
// pins) and requires the linearizability checker to convict the resulting
// history; the identical script against the intact object must pass. The
// checker demonstrably distinguishes the pool protocol from its
// best-known wrong neighbour.
func TestMutationEagerPoolReturnIsConvicted(t *testing.T) {
	info, err := eagerReleaseScenario(t, true)
	if !info.Adopted {
		t.Fatal("mutated run never adopted the stale view — the script lost its race shape")
	}
	if err == nil {
		t.Fatal("checker cannot convict: scan adopted a pre-interval view and spec.Check passed")
	}
	t.Logf("eager pool return convicted: %v", err)

	info, err = eagerReleaseScenario(t, false)
	if err != nil {
		t.Fatalf("intact object failed the same script: %v", err)
	}
	if info.Adopted {
		t.Fatal("intact run adopted — the stale-help CAS must miss the fresh record")
	}
}
