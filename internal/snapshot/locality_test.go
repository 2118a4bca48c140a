package snapshot

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"partialsnapshot/internal/sched"
	"partialsnapshot/internal/spec"
)

// These tests pin down what the sharded announcement registry buys and the
// new races it introduces: cross-partition updates must never observe a
// foreign announcement (measured, not assumed), multi-enrolled records are
// helped once, and records can be retired or half-enrolled while an
// updater reads them through another slot.

// TestCrossPartitionUpdatesNeverVisitRegistry parks a scanner with a live
// announcement on components {8,9} and then storms updates over the
// disjoint range [0,8). With the old global announcement stack every one
// of those updates walked past the record; with the sharded registry they
// consult only their own slots, find every head nil, and never walk at
// all. An intersecting update then finds the record via slot 9 on its
// first walk.
func TestCrossPartitionUpdatesNeverVisitRegistry(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](16).Instrument(ctl)

	var vals []int64
	var info ScanInfo
	ctl.Spawn("scanner", func() {
		var err error
		vals, info, err = o.PartialScanInfo([]int{8, 9})
		if err != nil {
			t.Errorf("PartialScanInfo: %v", err)
		}
	})
	// Obstruct the fast path so the scanner announces, then park it inside
	// its announced double collect with the record live in slots 8 and 9.
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatal("scanner finished before its first collect gap")
	}
	if err := o.Update([]int{8}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctl.StepUntil("scanner", sched.PostAnnounce); !ok {
		t.Fatal("scanner finished without announcing")
	}
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatal("scanner finished before its announced collect gap")
	}
	if live := o.Stats().LiveAnnouncements; live != 1 {
		t.Fatalf("LiveAnnouncements = %d with scanner parked, want 1", live)
	}

	// The cross-partition storm: single and batch updates over [0,8).
	for k := 0; k < 64; k++ {
		if err := o.Update([]int{k % 8}, []int64{int64(k)}); err != nil {
			t.Fatal(err)
		}
		if err := o.Update([]int{k % 8, (k + 3) % 8}, []int64{int64(k), int64(k)}); err != nil {
			t.Fatal(err)
		}
	}
	st := o.Stats()
	if st.RegistryWalks != 0 {
		t.Fatalf("RegistryWalks = %d, want 0 (no slot in [0,8) holds an enrollment)", st.RegistryWalks)
	}
	// One skip for the fast-path obstruction (slot 8 was still empty), then
	// one per storm consultation.
	if want := uint64(1 + 64*3); st.WalksSkipped != want {
		t.Fatalf("WalksSkipped = %d, want %d (every storm consultation reads a nil head)", st.WalksSkipped, want)
	}
	if st.RecordsVisited != 0 {
		t.Fatalf("cross-partition updates visited %d records, want 0", st.RecordsVisited)
	}
	if st.HelpsPosted != 0 {
		t.Fatalf("cross-partition updates posted %d helps, want 0", st.HelpsPosted)
	}
	for c := 0; c < 8; c++ {
		if _, visited := o.SlotStats(c); visited != 0 {
			t.Fatalf("slot %d reports %d visits during a cross-partition storm, want 0", c, visited)
		}
	}

	// An update that actually intersects the announcement finds it on its
	// first walk of slot 9 and posts help; the scanner adopts.
	op, err := o.UpdateOp([]int{9}, []int64{90})
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.RecordsVisited != 1 || st.HelpsPosted != 1 || st.RegistryWalks != 1 {
		t.Fatalf("intersecting update: visited=%d helps=%d walks=%d, want 1/1/1", st.RecordsVisited, st.HelpsPosted, st.RegistryWalks)
	}
	if _, visited := o.SlotStats(9); visited != 1 {
		t.Fatalf("slot 9 visits = %d, want 1", visited)
	}
	if _, ok := ctl.StepUntil("scanner", sched.PreAdopt); !ok {
		t.Fatal("scanner finished without adopting")
	}
	ctl.RunToCompletion("scanner")
	if !info.Adopted || info.HelperOp != op {
		t.Fatalf("info = %+v, want adoption from op %d", info, op)
	}
	if vals[0] != 1 || vals[1] != 0 {
		t.Fatalf("adopted view = %v, want [1 0] (helper collected before its store)", vals)
	}
}

// TestMultiEnrollmentDedup checks that an update whose write set overlaps a
// record in several components sees the record once per shared slot but
// helps it exactly once: the walk's seen list dedups slots two and three.
func TestMultiEnrollmentDedup(t *testing.T) {
	o := NewLockFree[int64](4)
	rec := newRecord(o.uni.Load(), []int{0, 1, 2}, 0)
	o.announce(rec)

	op, err := o.UpdateOp([]int{0, 1, 2}, []int64{10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.RecordsVisited != 3 || st.RecordsDeduped != 2 || st.HelpsPosted != 1 {
		t.Fatalf("visited=%d deduped=%d helps=%d, want 3/2/1", st.RecordsVisited, st.RecordsDeduped, st.HelpsPosted)
	}
	h := rec.help.Load()
	if h == nil || h.by != op {
		t.Fatalf("help = %+v, want a single view posted by op %d", h, op)
	}
	o.retire(rec)
	if live := o.Stats().LiveAnnouncements; live != 0 {
		t.Fatalf("LiveAnnouncements = %d after retire, want 0", live)
	}
}

// TestRecordRetiredInOneSlotReadViaAnother scripts the retire/walk race the
// per-slot lazy unlinking introduces: a record is retired while an updater —
// whose head load found the record's enrollment — is about to read it
// through one of its slots. The updater must skip the dead record (no help,
// no visit). Retirement also sweeps the record's now-stale enrollments off
// both its slots' heads, so a subsequent update on the other component
// reads a nil head and skips its walk outright.
func TestRecordRetiredInOneSlotReadViaAnother(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](4).Instrument(ctl)
	rec := newRecord(o.uni.Load(), []int{0, 1}, 0)
	o.announce(rec)

	ctl.Spawn("updater", func() {
		if err := o.Update([]int{1}, []int64{5}); err != nil {
			t.Errorf("Update: %v", err)
		}
	})
	// Parked on rec's enrollment in slot 1, before the done check:
	// the head load happened while rec was live, so the walk was not
	// elided.
	if arg, ok := ctl.StepUntil("updater", sched.PreVisit); !ok || arg != 1 {
		t.Fatalf("updater park = arg %d (ok=%v), want pre-visit(1)", arg, ok)
	}
	o.retire(rec)
	ctl.RunToCompletion("updater")

	if h := rec.help.Load(); h != nil {
		t.Fatalf("updater helped a retired record: %+v", h)
	}
	st := o.Stats()
	if st.RecordsVisited != 0 || st.HelpsPosted != 0 {
		t.Fatalf("retired record counted as a visit: %+v", st)
	}
	if st.WalksSkipped != 0 || st.RegistryWalks != 1 {
		t.Fatalf("WalksSkipped = %d, RegistryWalks = %d before quiescence, want 0 and 1 (the head load saw the live record)",
			st.WalksSkipped, st.RegistryWalks)
	}
	// The retire-side sweep drained both slots: slot 0's stale enrollment
	// did not wait for a walk, so its head is nil again.
	if l0, l1 := o.slotLen(0), o.slotLen(1); l0 != 0 || l1 != 0 {
		t.Fatalf("slotLen(0)=%d slotLen(1)=%d, want 0 and 0 (retire sweep drains both)", l0, l1)
	}
	// With the record retired and swept, an update on the other component
	// reads a nil head and skips the slot walk entirely.
	walks0, _ := o.SlotStats(0)
	if err := o.Update([]int{0}, []int64{6}); err != nil {
		t.Fatal(err)
	}
	st = o.Stats()
	if st.WalksSkipped != 1 {
		t.Fatalf("WalksSkipped = %d after a quiescent update, want 1", st.WalksSkipped)
	}
	if w, _ := o.SlotStats(0); w != 0 || walks0 != 0 {
		t.Fatalf("slot 0 walks went %d -> %d across a quiescent update, want 0 throughout", walks0, w)
	}
}

// TestEnrollRaceMidAnnouncement scripts the half-enrolled window: a scanner
// parks after enrolling in slot 0 but before slot 1, and an update on
// component 1 passes through without seeing (or owing help to) the record.
// That update is one of the finitely many "already past their walk" writers
// of the termination argument; the scanner still finishes — here by a clean
// announced double collect — and the recorded history passes the spec.
func TestEnrollRaceMidAnnouncement(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](4).Instrument(ctl)
	rec := &spec.Recorder[int64]{}

	var vals []int64
	var info ScanInfo
	sStart := rec.Now()
	ctl.Spawn("scanner", func() {
		var err error
		vals, info, err = o.PartialScanInfo([]int{0, 1})
		if err != nil {
			t.Errorf("PartialScanInfo: %v", err)
		}
	})
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatal("scanner finished before its first collect gap")
	}
	uStart := rec.Now()
	op1, err := o.UpdateOp([]int{0}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	rec.Add(spec.Op[int64]{Kind: spec.Update, Start: uStart, End: rec.Now(),
		Comps: []int{0}, Vals: []int64{1}, UpdateID: op1})
	// The obstructed scanner starts announcing; park it half-enrolled.
	if arg, ok := ctl.StepUntil("scanner", sched.PostEnroll); !ok || arg != 0 {
		t.Fatalf("scanner park = arg %d (ok=%v), want post-enroll(0)", arg, ok)
	}
	if l0, l1 := o.slotLen(0), o.slotLen(1); l0 != 1 || l1 != 0 {
		t.Fatalf("half-enrolled: slotLen(0)=%d slotLen(1)=%d, want 1 and 0", l0, l1)
	}
	// An update on component 1 walks slot 1, finds nothing, stores without
	// helping — it predates the record's enrollment in the only slot it
	// consults.
	uStart = rec.Now()
	op2, err := o.UpdateOp([]int{1}, []int64{7})
	if err != nil {
		t.Fatal(err)
	}
	rec.Add(spec.Op[int64]{Kind: spec.Update, Start: uStart, End: rec.Now(),
		Comps: []int{1}, Vals: []int64{7}, UpdateID: op2})
	if st := o.Stats(); st.HelpsPosted != 0 || st.RecordsVisited != 0 {
		t.Fatalf("mid-enrollment update interacted with the record: %+v", st)
	}
	// The scanner finishes enrolling; nothing moves anymore, so its
	// announced double collect is clean and it returns its own view.
	ctl.RunToCompletion("scanner")
	rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: sStart, End: rec.Now(),
		Comps: []int{0, 1}, Vals: vals, AdoptedFrom: info.HelperOp})
	if info.Adopted {
		t.Fatalf("scanner adopted (%+v) despite a clean announced collect", info)
	}
	if vals[0] != 1 || vals[1] != 7 {
		t.Fatalf("scan = %v, want [1 7]", vals)
	}
	if err := spec.Check(4, rec.Ops()); err != nil {
		t.Fatalf("history rejected by spec: %v", err)
	}
	if err := spec.CheckProvenance(rec.Ops()); err != nil {
		t.Fatalf("history rejected by provenance check: %v", err)
	}
	if live := o.Stats().LiveAnnouncements; live != 0 {
		t.Fatalf("LiveAnnouncements = %d after quiescence, want 0", live)
	}
}

// TestSlotHeadLoadBoundaryAgainstEnroller pins down both sides of the
// consultation's soundness argument. An updater of component 1 parks at
// PreSlotWalk — right before it loads slot 1's head — while a scanner of
// {0,1} enrolls, and the test orders the load against the scanner's head
// CAS in slot 1 both ways:
//
//   - load before the CAS: the scanner is parked half-enrolled (slot 0
//     linked, slot 1 not yet). The updater reads a nil head, skips and
//     stores without helping — one of the finitely many pre-walk updates
//     the termination argument tolerates — and the scanner still completes
//     with a clean announced collect.
//   - load after the CAS: the scanner is parked just past slot 1's CAS.
//     The updater reads the enrollment, walks, and helps before storing.
//
// Either way the recorded history must stay linearizable.
func TestSlotHeadLoadBoundaryAgainstEnroller(t *testing.T) {
	for _, tc := range []struct {
		name     string
		enrolled int    // the scanner parks at post-enroll(enrolled)
		walks    uint64 // slot 1 walks by the updater
		skipped  uint64 // op1's skip, plus the updater's if it loaded first
		helps    uint64
	}{
		{name: "load-before-cas", enrolled: 0, walks: 0, skipped: 2, helps: 0},
		{name: "load-after-cas", enrolled: 1, walks: 1, skipped: 1, helps: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl := sched.NewController()
			o := NewLockFree[int64](4).Instrument(ctl)
			rec := &spec.Recorder[int64]{}

			var vals []int64
			var info ScanInfo
			sStart := rec.Now()
			ctl.Spawn("scanner", func() {
				var err error
				vals, info, err = o.PartialScanInfo([]int{0, 1})
				if err != nil {
					t.Errorf("PartialScanInfo: %v", err)
				}
			})
			if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
				t.Fatal("scanner finished before its first collect gap")
			}
			// Obstruct the fast path so the scanner will announce.
			uStart := rec.Now()
			op1, err := o.UpdateOp([]int{0}, []int64{1})
			if err != nil {
				t.Fatal(err)
			}
			rec.Add(spec.Op[int64]{Kind: spec.Update, Start: uStart, End: rec.Now(),
				Comps: []int{0}, Vals: []int64{1}, UpdateID: op1})

			// Park an updater right before it loads slot 1's head.
			var op2 uint64
			uStart = rec.Now()
			ctl.Spawn("updater", func() {
				var err error
				op2, err = o.UpdateOp([]int{1}, []int64{7})
				if err != nil {
					t.Errorf("UpdateOp: %v", err)
				}
			})
			if arg, ok := ctl.StepUntil("updater", sched.PreSlotWalk); !ok || arg != 1 {
				t.Fatalf("updater park = arg %d (ok=%v), want pre-slot-walk(1)", arg, ok)
			}
			// The scanner enrolls up to the case's boundary.
			for {
				arg, ok := ctl.StepUntil("scanner", sched.PostEnroll)
				if !ok {
					t.Fatal("scanner finished without enrolling")
				}
				if arg == tc.enrolled {
					break
				}
			}
			if l1 := o.slotLen(1); l1 != tc.enrolled {
				t.Fatalf("slotLen(1) = %d with the scanner parked at post-enroll(%d), want %d", l1, tc.enrolled, tc.enrolled)
			}
			// The updater resumes: one head load decides skip or walk.
			ctl.RunToCompletion("updater")
			rec.Add(spec.Op[int64]{Kind: spec.Update, Start: uStart, End: rec.Now(),
				Comps: []int{1}, Vals: []int64{7}, UpdateID: op2})
			st := o.Stats()
			if w, _ := o.SlotStats(1); w != tc.walks || st.RegistryWalks != tc.walks {
				t.Fatalf("slot 1 walks = %d, RegistryWalks = %d, want %d", w, st.RegistryWalks, tc.walks)
			}
			if st.WalksSkipped != tc.skipped {
				t.Fatalf("WalksSkipped = %d, want %d", st.WalksSkipped, tc.skipped)
			}
			if st.HelpsPosted != tc.helps || st.RecordsVisited != tc.walks {
				t.Fatalf("helps=%d visited=%d, want %d/%d", st.HelpsPosted, st.RecordsVisited, tc.helps, tc.walks)
			}

			// The scanner finishes; nothing moves anymore, so its announced
			// double collect is clean and it returns its own view.
			ctl.RunToCompletion("scanner")
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: sStart, End: rec.Now(),
				Comps: []int{0, 1}, Vals: vals, AdoptedFrom: info.HelperOp})
			if info.Adopted {
				t.Fatalf("scanner adopted (%+v) despite a clean announced collect", info)
			}
			if vals[0] != 1 || vals[1] != 7 {
				t.Fatalf("scan = %v, want [1 7]", vals)
			}
			if err := spec.Check(4, rec.Ops()); err != nil {
				t.Fatalf("history rejected by spec: %v", err)
			}
			if err := spec.CheckProvenance(rec.Ops()); err != nil {
				t.Fatalf("history rejected by provenance check: %v", err)
			}
			if live := o.Stats().LiveAnnouncements; live != 0 {
				t.Fatalf("LiveAnnouncements = %d after quiescence, want 0", live)
			}
		})
	}
}

// partitionObstructor forces every level-0 double collect to fail by
// updating component 8 inside the collect gap (executed by the scanning
// goroutine itself), so partition B's scanners always announce and adopt
// while partition A's updaters run free. See obstructingSched in
// helping_test.go for why this hook shape is race-detector-visible
// concurrency rather than a serialised script.
type partitionObstructor struct {
	o *LockFree[int64]
	n atomic.Int64
}

func (s *partitionObstructor) Yield(p sched.Point, arg int) {
	if p == sched.PostFirstCollect && arg == 0 {
		if err := s.o.Update([]int{8}, []int64{s.n.Add(1)}); err != nil {
			panic(err)
		}
	}
}

// TestPartitionedWorkloadZeroCrossPartitionVisits is the locality property
// test under real concurrency (run with -race): partition A hammers
// updates over components [0,8) while partition B's scanners on {8,9} are
// forced to keep announcements continuously live in slots 8 and 9. The
// per-slot gauges must show partition A consulting its slots thousands of
// times yet never walking one, since no enrollment ever lands there: every
// registry walk and visit of the whole run lands in partition B's slots.
func TestPartitionedWorkloadZeroCrossPartitionVisits(t *testing.T) {
	o := NewLockFree[int64](16)
	o.Instrument(&partitionObstructor{o: o})

	updatesPerWorker := 400
	scansPerScanner := 50
	if testing.Short() {
		updatesPerWorker, scansPerScanner = 100, 20
	}
	var wg sync.WaitGroup
	var aConsults atomic.Uint64 // partition A's (update, component) pairs
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for k := 0; k < updatesPerWorker; k++ {
				width := 1 + rng.Intn(3)
				ids := make([]int, 0, width)
				for len(ids) < width {
					c := rng.Intn(8)
					dup := false
					for _, x := range ids {
						dup = dup || x == c
					}
					if !dup {
						ids = append(ids, c)
					}
				}
				vals := make([]int64, width)
				for i := range vals {
					vals[i] = int64(w+1)<<32 | int64(k+1)
				}
				if err := o.Update(ids, vals); err != nil {
					t.Errorf("Update%v: %v", ids, err)
					return
				}
				aConsults.Add(uint64(width))
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < scansPerScanner; k++ {
				_, info, err := o.PartialScanInfo([]int{8, 9})
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
	var aWalks, aVisited, bVisited uint64
	for c := 0; c < 8; c++ {
		w, v := o.SlotStats(c)
		aWalks += w
		aVisited += v
	}
	for c := 8; c < 16; c++ {
		_, v := o.SlotStats(c)
		bVisited += v
	}
	// Partition A's slots never hold an enrollment, so each of its
	// consultations reads a nil head: zero walks there, and at least one
	// skip per partition-A (update, component) pair (the obstructor's
	// writes of slot 8 add skips whenever they find it empty).
	if aWalks != 0 {
		t.Fatalf("partition A's slots report %d walks, want 0", aWalks)
	}
	if st.WalksSkipped < aConsults.Load() {
		t.Fatalf("WalksSkipped = %d, want >= %d (every partition-A consultation skips)", st.WalksSkipped, aConsults.Load())
	}
	if aVisited != 0 {
		t.Fatalf("partition A's slots report %d registry visits, want 0 (cross-partition interference)", aVisited)
	}
	if bVisited == 0 || st.RecordsVisited != bVisited {
		t.Fatalf("visits: total=%d partitionB=%d, want all visits in partition B and nonzero", st.RecordsVisited, bVisited)
	}
	if st.HelpsAdopted < uint64(4*scansPerScanner) {
		t.Fatalf("HelpsAdopted = %d, want >= %d", st.HelpsAdopted, 4*scansPerScanner)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("partitioned storm leaked %d live announcements", st.LiveAnnouncements)
	}
	t.Logf("partitioned stats: %+v", st)
}
