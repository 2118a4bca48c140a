package snapshot

import (
	"testing"

	"partialsnapshot/internal/sched"
)

// These tests script the registry's lazy-unlink races through the
// sched.PreUnlink yield point — the unlink path had no yield points before
// it, so the "CASes can lose to each other or briefly resurrect a retired
// enrollment; both are harmless" claim in registry.go was argued, not
// replayed.

// TestUnlinkRaceTwoWalkersSameEnrollment parks three unlinkers — two
// updater walks and the retiring owner's sweep — immediately before their
// unlink CAS of the *same* retired enrollment, lets them fire in order, and
// checks the losers' stale CASes neither corrupt the slot nor double-count:
// the slot ends empty, stats stay coherent, and both updates complete.
// The stale enrollment is still slot 0's head, so both walkers' head loads
// find it non-nil and they walk instead of skipping.
func TestUnlinkRaceTwoWalkersSameEnrollment(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)

	rec := newRecord(o.uni.Load(), []int{0}, 0)
	o.announce(rec)

	// The owner's retirement sweep parks before popping rec's now-stale
	// enrollment off slot 0's head; the record is already logically retired
	// (done flag set).
	ctl.Spawn("retirer", func() { o.retire(rec) })
	if arg, ok := ctl.StepUntil("retirer", sched.PreUnlink); !ok || arg != 0 {
		t.Fatalf("retirer parked at PreUnlink(%d) ok=%v, want arg 0", arg, ok)
	}

	spawnUpdate := func(name string, val int64) {
		ctl.Spawn(name, func() {
			if err := o.Update([]int{0}, []int64{val}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
	}
	spawnUpdate("u1", 1)
	spawnUpdate("u2", 2)

	// Both walkers load the same stale head, walk, and park before their
	// unlink CAS.
	for _, name := range []string{"u1", "u2"} {
		if arg, ok := ctl.StepUntil(name, sched.PreUnlink); !ok || arg != 0 {
			t.Fatalf("%s parked at PreUnlink(%d) ok=%v, want arg 0", name, arg, ok)
		}
	}
	// u1 wins the unlink; u2's and the retirer's CASes fire against a head
	// that already moved and must lose without damage.
	ctl.RunToCompletion("u1")
	ctl.RunToCompletion("u2")
	ctl.RunToCompletion("retirer")

	if n := o.slotLen(0); n != 0 {
		t.Fatalf("slotLen(0) = %d after racing unlinks, want 0", n)
	}
	st := o.Stats()
	if st.LiveAnnouncements != 0 {
		t.Fatalf("LiveAnnouncements = %d, want 0", st.LiveAnnouncements)
	}
	if st.RecordsVisited != 0 || st.HelpsPosted != 0 {
		t.Fatalf("retired record was visited or helped: %+v", st)
	}
	if st.RegistryWalks != 2 || st.WalksSkipped != 0 {
		t.Fatalf("RegistryWalks = %d, WalksSkipped = %d, want 2 and 0 (both walkers found the stale head)",
			st.RegistryWalks, st.WalksSkipped)
	}
	// Both stores landed despite the lost CASes.
	got, err := o.PartialScan([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 && got[0] != 2 {
		t.Fatalf("component 0 = %d, want one of the racing updates' values", got[0])
	}
}

// TestUnlinkRaceAgainstEnroller parks a scanner's enrollment mid-cleanup
// (it found a retired enrollment at the slot head and is about to unlink
// it) and a retiring owner's sweep before the same CAS, while an updater
// walks the same slot and unlinks that enrollment first. The enroller's and
// the retirer's stale CASes must fail cleanly and the enroller's record
// must still end up enrolled and discoverable by the next walk.
func TestUnlinkRaceAgainstEnroller(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)

	// Two records stack up in slot 0: a (retired first) lingers mid-chain
	// because b's live enrollment sits above it when a's retirement sweep
	// runs — head-only popping stops at a live head.
	a := newRecord(o.uni.Load(), []int{0}, 0)
	o.announce(a)
	b := newRecord(o.uni.Load(), []int{0}, 0)
	o.announce(b)
	o.retire(a)
	if n := o.slotLen(0); n != 2 {
		t.Fatalf("slotLen(0) = %d after retiring under a live head, want 2 (a lingers mid-chain)", n)
	}

	// The record the enroller announces below is a fresh one; a's lingering
	// enrollment stays stale by a's done flag for good, since a retired
	// record is never reused.
	fresh := newRecord(o.uni.Load(), []int{0}, 0)

	// b's retirement sweep parks before popping b's own now-stale head
	// enrollment; b is already logically retired.
	ctl.Spawn("retirer", func() { o.retire(b) })
	if arg, ok := ctl.StepUntil("retirer", sched.PreUnlink); !ok || arg != 0 {
		t.Fatalf("retirer parked at PreUnlink(%d) ok=%v, want arg 0", arg, ok)
	}

	// The enroller finds b's stale enrollment at the head and parks before
	// unlinking it.
	ctl.Spawn("enroller", func() { o.announce(fresh) })
	if arg, ok := ctl.StepUntil("enroller", sched.PreUnlink); !ok || arg != 0 {
		t.Fatalf("enroller parked at PreUnlink(%d) ok=%v, want arg 0", arg, ok)
	}

	// The updater's walk (its head load finds b's stale enrollment)
	// unlinks b's stale head AND a's lingering enrollment out from under
	// both parked CASes (uncontrolled goroutine: runs straight
	// through).
	if err := o.Update([]int{0}, []int64{7}); err != nil {
		t.Fatal(err)
	}
	if n := o.slotLen(0); n != 0 {
		t.Fatalf("slotLen(0) = %d after the walk, want 0", n)
	}

	// The enroller's cleanup CAS fails against the moved head; it must
	// retry, observe the empty slot, and link its record.
	ctl.RunToCompletion("enroller")
	if n := o.slotLen(0); n != 1 {
		t.Fatalf("slotLen(0) = %d after enroll, want the fresh record linked", n)
	}
	// The retirer's sweep CAS fails against the moved head too; it must
	// stop at the live head instead of popping it.
	ctl.RunToCompletion("retirer")
	if n := o.slotLen(0); n != 1 {
		t.Fatalf("slotLen(0) = %d after the retirer's lost CAS, want the fresh record still linked", n)
	}
	if live := o.Stats().LiveAnnouncements; live != 1 {
		t.Fatalf("LiveAnnouncements = %d, want 1", live)
	}

	// The fresh record is discoverable: an intersecting update helps it.
	if err := o.Update([]int{0}, []int64{8}); err != nil {
		t.Fatal(err)
	}
	if fresh.help.Load() == nil {
		t.Fatal("fresh record enrolled through the raced slot was never helped")
	}
	o.retire(fresh)
	if live := o.Stats().LiveAnnouncements; live != 0 {
		t.Fatalf("LiveAnnouncements = %d after retire, want 0", live)
	}
}
