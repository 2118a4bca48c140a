package snapshot

import (
	"errors"
	"math"
	"testing"

	"partialsnapshot/internal/sched"
)

// The epoch suite pins down the dynamic-universe contract: Grow installs
// a copy-on-grow successor universe by CAS, every existing component
// aliases its cell and registry slot across epochs, and every operation
// runs entirely against the universe it pinned. The scripted tests below
// park goroutines at the two epoch yield points (pre-epoch-pin, before an
// operation loads the universe; pre-epoch-install, between a Grow building
// its successor and publishing it) to force the exact interleavings the
// design argues about.

// TestEpochBasicSemantics is the sequential contract: values survive a
// Grow, fresh components are zero, and malformed resizes are rejected
// without installing an epoch.
func TestEpochBasicSemantics(t *testing.T) {
	o := NewLockFree[int64](2)
	if n, g := o.Components(), o.Stats().Grows; n != 2 || g != 0 {
		t.Fatalf("fresh object: n=%d grows=%d, want 2/0", n, g)
	}
	if err := o.Update([]int{0, 1}, []int64{10, 20}); err != nil {
		t.Fatal(err)
	}
	size, err := o.Grow(2)
	if err != nil || size != 4 {
		t.Fatalf("Grow(2) = %d, %v; want 4, nil", size, err)
	}
	vals, err := o.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{10, 20, 0, 0}; len(vals) != 4 || vals[0] != 10 || vals[1] != 20 || vals[2] != 0 || vals[3] != 0 {
		t.Fatalf("post-grow Scan = %v, want %v", vals, want)
	}
	if _, err := o.PartialScan([]int{4}); !errors.Is(err, ErrBadComponent) {
		t.Fatalf("scan past the grown universe: %v, want ErrBadComponent", err)
	}
	// Malformed resizes: no epoch may be installed.
	if _, err := o.Grow(0); !errors.Is(err, ErrBadResize) {
		t.Fatalf("Grow(0): %v, want ErrBadResize", err)
	}
	if _, err := o.Grow(-1); !errors.Is(err, ErrBadResize) {
		t.Fatalf("Grow(-1): %v, want ErrBadResize", err)
	}
	st := o.Stats()
	if st.Grows != 1 {
		t.Fatalf("Grows = %d, want 1", st.Grows)
	}
}

// TestGrowOverflowIsBadResize grows by an amount whose new size overflows
// int: both objects must answer ErrBadResize and stay as they were, not
// panic building the successor.
func TestGrowOverflowIsBadResize(t *testing.T) {
	for _, impl := range Impls() {
		o, err := New[int64](impl, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{math.MaxInt, math.MaxInt - 3} {
			if _, err := o.Grow(k); !errors.Is(err, ErrBadResize) {
				t.Fatalf("%s: Grow(%d) on 4 components: %v, want ErrBadResize", impl, k, err)
			}
		}
		if n := o.Components(); n != 4 {
			t.Fatalf("%s: rejected grows left %d components, want 4", impl, n)
		}
	}
}

// TestGrowInstallRaceScripted forces the CAS-retry path: a grower parked
// between building its successor and installing it loses the race to a
// competing resize, and must rebuild against the new universe rather than
// clobber it — sizes compose, nothing is lost.
func TestGrowInstallRaceScripted(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](4).Instrument(ctl)
	if err := o.Update([]int{0}, []int64{1}); err != nil {
		t.Fatal(err)
	}

	var grown int
	ctl.Spawn("grower", func() {
		var err error
		grown, err = o.Grow(2)
		if err != nil {
			t.Errorf("Grow(2): %v", err)
		}
	})
	// Park with the 6-component successor built but not installed.
	if arg, ok := ctl.StepUntil("grower", sched.PreEpochInstall); !ok || arg != 6 {
		t.Fatalf("grower park arg = %d (ok=%v), want successor size 6", arg, ok)
	}
	// A competing Grow(1) wins the install.
	if size, err := o.Grow(1); err != nil || size != 5 {
		t.Fatalf("competing Grow(1) = %d, %v; want 5, nil", size, err)
	}
	// The parked grower's CAS must fail; its retry rebuilds a 7-component
	// successor on top of the winner.
	if arg, ok := ctl.StepUntil("grower", sched.PreEpochInstall); !ok || arg != 7 {
		t.Fatalf("grower retry park arg = %d (ok=%v), want successor size 7", arg, ok)
	}
	ctl.RunToCompletion("grower")
	if g := o.Stats().Grows; grown != 7 || o.Components() != 7 || g != 2 {
		t.Fatalf("after raced grow: returned %d, n=%d, grows=%d; want 7/7/2", grown, o.Components(), g)
	}
	// Both universes preserved component 0.
	if vals, err := o.PartialScan([]int{0}); err != nil || vals[0] != 1 {
		t.Fatalf("component 0 after raced grows = %v, %v; want [1]", vals, err)
	}

}

// TestHelpAcrossEpochsScripted is the grow-vs-walk race: a scanner
// announced under epoch 0 is helped by an updater that pinned epoch 1.
// Because every component aliases its registry slot across epochs,
// the updater's walk of the NEW universe's slot still finds the OLD
// enrollment, and the embedded scan it posts runs through the record's own
// pinned universe — helping is epoch-transparent.
func TestHelpAcrossEpochsScripted(t *testing.T) {
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
	// Obstruct the fast path so the scanner announces under epoch 0, then
	// park it in the announced double-collect gap.
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatal("scanner finished before its first collect gap")
	}
	if err := o.Update([]int{0}, []int64{10}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctl.StepUntil("scanner", sched.PostAnnounce); !ok {
		t.Fatal("scanner finished without announcing")
	}
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatal("scanner finished before its announced collect gap")
	}

	// Install epoch 1 while the scanner sleeps on its epoch-0 enrollment.
	if size, err := o.Grow(2); err != nil || size != 6 {
		t.Fatalf("Grow(2) = %d, %v; want 6, nil", size, err)
	}
	// This update pins epoch 1, walks epoch 1's slot 0 — which aliases
	// epoch 0's — finds the enrollment, and posts help collected before its
	// own store.
	helperOp, err := o.UpdateOp([]int{0}, []int64{11})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ctl.StepUntil("scanner", sched.PreAdopt); !ok {
		t.Fatal("scanner finished without adopting cross-epoch help")
	}
	ctl.RunToCompletion("scanner")

	if vals[0] != 10 || vals[1] != 2 {
		t.Fatalf("adopted view = %v, want [10 2] (pre-store state)", vals)
	}
	if !info.Adopted || info.HelperOp != helperOp {
		t.Fatalf("info = %+v, want adoption from epoch-1 op %d", info, helperOp)
	}
	st := o.Stats()
	if st.HelpsPosted != 1 || st.HelpsAdopted != 1 || st.Grows != 1 {
		t.Fatalf("stats = %+v, want exactly 1 cross-epoch help posted and adopted", st)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("cross-epoch helping leaked %d live announcements", st.LiveAnnouncements)
	}
}

// TestEpochPinBoundaryScripted puts operations on both sides of a Grow's
// install: an op that pins AFTER the install validates against the new
// size, so a grown component becomes addressable; an op that pins BEFORE
// it is rejected, and that rejection linearizes at its pin, before the
// Grow. This is the linearization boundary the epoch design claims.
func TestEpochPinBoundaryScripted(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)

	// An update naming component 2 — invalid now — becomes valid because
	// the Grow installs before the updater pins.
	var updErr error
	ctl.Spawn("updater", func() {
		updErr = o.Update([]int{2}, []int64{5})
	})
	if _, ok := ctl.StepUntil("updater", sched.PreEpochPin); !ok {
		t.Fatal("updater finished before pinning")
	}
	if _, err := o.Grow(1); err != nil {
		t.Fatal(err)
	}
	ctl.RunToCompletion("updater")
	if updErr != nil {
		t.Fatalf("update pinned after Grow rejected: %v", updErr)
	}
	if vals, err := o.PartialScan([]int{2}); err != nil || vals[0] != 5 {
		t.Fatalf("component 2 = %v, %v; want [5]", vals, err)
	}

	// A scan naming component 3 pins while a Grow that creates it is
	// built but not installed: it is rejected against the pinned size.
	// Once the install lands, the same scan succeeds.
	ctl.Spawn("grower", func() {
		if _, err := o.Grow(1); err != nil {
			t.Errorf("Grow(1): %v", err)
		}
	})
	if arg, ok := ctl.StepUntil("grower", sched.PreEpochInstall); !ok || arg != 4 {
		t.Fatalf("grower park arg = %d (ok=%v), want successor size 4", arg, ok)
	}
	if _, err := o.PartialScan([]int{3}); !errors.Is(err, ErrBadComponent) {
		t.Fatalf("scan pinned before the install: %v, want ErrBadComponent", err)
	}
	ctl.RunToCompletion("grower")
	if vals, err := o.PartialScan([]int{3}); err != nil || vals[0] != 0 {
		t.Fatalf("scan pinned after the install = %v, %v; want [0]", vals, err)
	}
}

// TestGrowDuringFullScanScripted is why a scan needs no check against a
// resize. A full scan over epoch 0's {0, 1} parks mid-collect, a Grow
// installs epoch 1, and a writer pinned to epoch 1 moves component 0
// through the register both epochs share. The scan sees the write, so its
// collect is obstructed, and it returns a view of epoch 0's components
// that includes the write: a view of the grown object too, since both
// named registers are the current epoch's.
func TestGrowDuringFullScanScripted(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)
	if err := o.Update([]int{0, 1}, []int64{10, 20}); err != nil {
		t.Fatal(err)
	}

	var vals []int64
	var scanErr error
	ctl.Spawn("scanner", func() {
		vals, scanErr = o.Scan()
	})
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatal("scanner finished before its first collect gap")
	}
	if size, err := o.Grow(1); err != nil || size != 3 {
		t.Fatalf("Grow(1) = %d, %v; want 3, nil", size, err)
	}
	// The epoch-1 writer stores through component 0's aliased register.
	if err := o.Update([]int{0}, []int64{11}); err != nil {
		t.Fatal(err)
	}
	ctl.RunToCompletion("scanner")
	if scanErr != nil {
		t.Fatalf("Scan: %v", scanErr)
	}
	if len(vals) != 2 || vals[0] != 11 || vals[1] != 20 {
		t.Fatalf("full scan across a Grow = %v, want [11 20] (the pinned epoch's components, with the later write)", vals)
	}
	st := o.Stats()
	if st.ScanRetries != 1 {
		t.Fatalf("ScanRetries = %d, want 1: the aliased write must obstruct the pinned collect", st.ScanRetries)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("full scan across a Grow leaked %d live announcements", st.LiveAnnouncements)
	}
}
