package snapshot

import (
	"fmt"
	"testing"

	"partialsnapshot/internal/sched"
	"partialsnapshot/internal/spec"
)

// script bundles the controller, object and history recorder of a scripted
// schedule test and provides recorded spawn/run helpers.
type script struct {
	t   *testing.T
	ctl *sched.Controller
	o   *LockFree[int64]
	rec *spec.Recorder[int64]
}

func newScript(t *testing.T, components int) *script {
	s := &script{t: t, ctl: sched.NewController(), rec: &spec.Recorder[int64]{}}
	s.o = NewLockFree[int64](components).Instrument(s.ctl)
	return s
}

// spawnUpdate launches a recorded Update on a controlled goroutine.
func (s *script) spawnUpdate(name string, ids []int, vals []int64) {
	s.ctl.Spawn(name, func() {
		start := s.rec.Now()
		if err := s.o.Update(ids, vals); err != nil {
			s.t.Errorf("%s: Update%v: %v", name, ids, err)
			return
		}
		s.rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: s.rec.Now(),
			Comps: ids, Vals: vals})
	})
}

// spawnScan launches a recorded PartialScanInfo on a controlled goroutine.
func (s *script) spawnScan(name string, ids []int, valsOut *[]int64, infoOut *ScanInfo) {
	s.ctl.Spawn(name, func() {
		start := s.rec.Now()
		vals, info, err := s.o.PartialScanInfo(ids)
		if err != nil {
			s.t.Errorf("%s: PartialScanInfo%v: %v", name, ids, err)
			return
		}
		*valsOut, *infoOut = vals, info
		s.rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: s.rec.Now(),
			Comps: ids, Vals: vals})
	})
}

// mustPark steps name to its next park and asserts the position.
func (s *script) mustPark(name string, p sched.Point, arg int) {
	s.t.Helper()
	a, ok := s.ctl.StepUntil(name, p)
	if !ok {
		s.t.Fatalf("%s finished before reaching %s(%d)", name, p, arg)
	}
	if a != arg {
		s.t.Fatalf("%s parked at %s(%d), want arg %d", name, p, a, arg)
	}
}

// check replays the recorded history through the spec checker.
func (s *script) check(components int) {
	s.t.Helper()
	if err := spec.Check(components, s.rec.Ops()); err != nil {
		s.t.Fatalf("scripted history rejected by spec: %v", err)
	}
}

// TestStarvationRegressionBoundedHelperSchedule replays, deterministically,
// the adversary that defeated the pre-wait-free implementation. That
// version bounded an updater's embedded collect to maxHelpAttempts = 8
// tries and then gave up without posting help, so a schedule that obstructs
// the helper 8 times starves the scanner forever: no help ever lands and
// the scanner retries unboundedly.
//
// The schedule: nine writers pass their announcement-stack walk before the
// scanner announces (so they owe it no help), then release their stores one
// by one — first to obstruct the scanner into announcing, then to obstruct
// the helping updater's embedded double collect exactly 8 times. The old
// helper exhausts its bound here. The wait-free helper just keeps
// collecting: the adversary runs out of pre-positioned writers (any *new*
// writer would have to help first), its 9th collect comes back clean, help
// is posted, and the scanner adopts it.
func TestStarvationRegressionBoundedHelperSchedule(t *testing.T) {
	const oldMaxHelpAttempts = 8
	s := newScript(t, 2)

	// Writers w1..w9 walk the (empty) announcement stack and park just
	// before their store of component 0.
	writers := make([]string, 0, oldMaxHelpAttempts+1)
	for i := 1; i <= oldMaxHelpAttempts+1; i++ {
		name := fmt.Sprintf("w%d", i)
		writers = append(writers, name)
		s.spawnUpdate(name, []int{0}, []int64{int64(i)})
		s.mustPark(name, sched.PreCellStore, 0)
	}
	release := func(name string) { s.ctl.RunToCompletion(name) }

	// The scanner fails its fast-path double collect (w1 stores inside the
	// gap) and announces.
	var vals []int64
	var info ScanInfo
	s.spawnScan("scanner", []int{0, 1}, &vals, &info)
	s.mustPark("scanner", sched.PostFirstCollect, 0)
	release(writers[0])
	s.mustPark("scanner", sched.PostAnnounce, 0)
	s.mustPark("scanner", sched.PostFirstCollect, 0)

	// The helping updater finds the announcement and starts its embedded
	// scan; w2 obstructs the unannounced fast attempt, w3..w9 obstruct the
	// announced loop — 8 failed embedded double collects, exactly the old
	// bound.
	s.spawnUpdate("helper", []int{0}, []int64{100})
	s.mustPark("helper", sched.PreHelpScan, 1)
	s.mustPark("helper", sched.PostFirstCollect, 1)
	release(writers[1])
	s.mustPark("helper", sched.PostAnnounce, 1)
	s.mustPark("helper", sched.PostFirstCollect, 1)
	for _, w := range writers[2:] {
		release(w)
		s.mustPark("helper", sched.PostFirstCollect, 1)
	}
	// No obstructors remain: the 9th embedded collect is clean and the
	// helper posts it — the step a bounded helper never reaches.
	s.mustPark("helper", sched.PreHelpPost, 0)
	s.ctl.RunToCompletion("helper")

	// The scanner's next double collect fails (the helper stored 100), so
	// it adopts the posted view instead of spinning.
	s.mustPark("scanner", sched.PreAdopt, 0)
	s.ctl.RunToCompletion("scanner")

	if want := []int64{int64(oldMaxHelpAttempts + 1), 0}; vals[0] != want[0] || vals[1] != want[1] {
		t.Fatalf("adopted view = %v, want %v (helper's clean collect after w9, before its own store)", vals, want)
	}
	if !info.Adopted || info.Depth != 1 {
		t.Fatalf("info = %+v, want adoption at depth 1", info)
	}
	st := s.o.Stats()
	if st.ScanRetries != 10 {
		t.Fatalf("ScanRetries = %d, want exactly 10 (2 scanner + 8 embedded) — schedule is deterministic", st.ScanRetries)
	}
	if st.HelpsPosted != 1 || st.HelpsAdopted != 1 || st.MaxHelpDepth != 1 {
		t.Fatalf("stats = %+v, want 1 help posted/adopted at depth 1", st)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("LiveAnnouncements = %d after quiescence, want 0", st.LiveAnnouncements)
	}
	s.check(2)
}

// TestNestedHelpChainAdoption scripts help-of-helper: a helping updater's
// embedded scan is itself obstructed, announces its own level-1 record, and
// completes by adopting help posted by a third updater's level-2 scan. The
// nested view then propagates to the original scanner, whose ScanInfo
// reports the chain depth.
func TestNestedHelpChainAdoption(t *testing.T) {
	s := newScript(t, 2)

	// Three pre-positioned writers (stack walk already done, no help owed).
	for i, name := range []string{"wa", "wb", "wc"} {
		s.spawnUpdate(name, []int{0}, []int64{int64(i + 1)})
		s.mustPark(name, sched.PreCellStore, 0)
	}

	// Scanner announces after wa obstructs its fast path.
	var vals []int64
	var info ScanInfo
	s.spawnScan("scanner", []int{0, 1}, &vals, &info)
	s.mustPark("scanner", sched.PostFirstCollect, 0)
	s.ctl.RunToCompletion("wa")
	s.mustPark("scanner", sched.PostAnnounce, 0)
	s.mustPark("scanner", sched.PostFirstCollect, 0)

	// Helper u2 starts an embedded scan for the scanner; wb obstructs its
	// fast attempt, forcing u2 to announce a level-1 record of its own and
	// wait inside the announced loop.
	s.spawnUpdate("u2", []int{0}, []int64{200})
	s.mustPark("u2", sched.PreHelpScan, 1)
	s.mustPark("u2", sched.PostFirstCollect, 1)
	s.ctl.RunToCompletion("wb")
	s.mustPark("u2", sched.PostAnnounce, 1)
	s.mustPark("u2", sched.PostFirstCollect, 1)
	// Slot 0 now holds u2's level-1 record above the scanner's level-0 one.
	e1 := s.o.slots[0].head.Load()
	rec1, rec0 := e1.rec, e1.next.Load().rec
	if rec1.level != 1 || rec0.level != 0 {
		t.Fatalf("slot 0 holds levels %d, %d, want u2's level 1 above the scanner's level 0", rec1.level, rec0.level)
	}

	// u3 walks the stack newest-first: it finds u2's embedded record at the
	// head and helps *it* (a level-2 embedded scan — help of the helper),
	// posting a view onto u2's record. We park u3 right after that post,
	// before it can also help the scanner directly.
	s.spawnUpdate("u3", []int{0}, []int64{300})
	s.mustPark("u3", sched.PreHelpScan, 2)
	s.mustPark("u3", sched.PostFirstCollect, 2)
	s.mustPark("u3", sched.PreHelpPost, 1)
	s.mustPark("u3", sched.PreHelpScan, 1) // parked before helping the scanner

	// wc obstructs u2's announced loop; u2 fails its collect, finds u3's
	// nested help on its own record, adopts it, and relays it — depth 2 —
	// onto the scanner's record before storing.
	s.ctl.RunToCompletion("wc")
	s.mustPark("u2", sched.PreAdopt, 1)
	s.mustPark("u2", sched.PreHelpPost, 0)
	s.ctl.RunToCompletion("u2")

	s.mustPark("scanner", sched.PreAdopt, 0)
	s.ctl.RunToCompletion("scanner")
	s.ctl.RunToCompletion("u3")

	// u3's level-2 collect ran after wb's store (value 2) and before wc's:
	// that is the view the whole chain hands back to the scanner.
	if vals[0] != 2 || vals[1] != 0 {
		t.Fatalf("adopted view = %v, want [2 0] (u3's nested collect)", vals)
	}
	if !info.Adopted {
		t.Fatalf("info = %+v, want adoption of the view u2 relayed", info)
	}
	if info.Depth != 2 {
		t.Fatalf("info.Depth = %d, want 2 (view originated in a help-of-helper collect)", info.Depth)
	}
	// u2 relayed the view it adopted without copying it: a posted view is
	// never written, so one slice serves both records in turn.
	if v1, v0 := rec1.help.Load().vals, rec0.help.Load().vals; &v1[0] != &v0[0] {
		t.Fatalf("the scanner's help view %v does not share u2's adopted view %v: the relay copied it", v0, v1)
	}
	st := s.o.Stats()
	if st.MaxHelpDepth != 2 {
		t.Fatalf("MaxHelpDepth = %d, want 2", st.MaxHelpDepth)
	}
	if st.HelpsPosted != 2 || st.HelpsAdopted != 2 {
		t.Fatalf("stats = %+v, want 2 helps posted (u3→u2, u2→scanner) and 2 adopted", st)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("LiveAnnouncements = %d after quiescence, want 0", st.LiveAnnouncements)
	}
	s.check(2)
}
