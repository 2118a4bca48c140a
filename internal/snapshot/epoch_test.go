package snapshot

import (
	"errors"
	"math"
	"testing"

	"partialsnapshot/internal/sched"
	"partialsnapshot/internal/spec"
)

// The epoch suite pins down the dynamic-universe contract: Grow/Shrink
// install copy-on-grow successor universes by CAS, surviving components
// alias their cells and registry slots across epochs, and every operation
// runs entirely against the universe it pinned. The scripted tests below
// park goroutines at the two epoch yield points (pre-epoch-pin, before an
// operation loads the universe; pre-epoch-install, between a resize
// building its successor and publishing it) to force the exact
// interleavings the design argues about.

// TestEpochBasicSemantics is the sequential contract: values survive a
// Grow, fresh components are zero, a Shrink removes the suffix, a
// shrink-then-regrow component comes back empty (no resurrection), and
// malformed resizes are rejected without installing an epoch.
func TestEpochBasicSemantics(t *testing.T) {
	o := NewLockFree[int64](2)
	if n, e := o.Components(), o.Epoch(); n != 2 || e != 0 {
		t.Fatalf("fresh object: n=%d epoch=%d, want 2/0", n, e)
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
	if err := o.Update([]int{3}, []int64{30}); err != nil {
		t.Fatal(err)
	}
	size, err = o.Shrink(2)
	if err != nil || size != 2 {
		t.Fatalf("Shrink(2) = %d, %v; want 2, nil", size, err)
	}
	if _, err := o.PartialScan([]int{2}); !errors.Is(err, ErrBadComponent) {
		t.Fatalf("scan of shrunk component: %v, want ErrBadComponent", err)
	}
	// Regrow: component 3's old value 30 must NOT resurrect.
	if _, err := o.Grow(2); err != nil {
		t.Fatal(err)
	}
	vals, err = o.PartialScan([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 0 || vals[1] != 0 {
		t.Fatalf("regrown components = %v, want zeros (no resurrection)", vals)
	}
	// Malformed resizes: no epoch may be installed.
	epochs := o.Epoch()
	if _, err := o.Grow(0); !errors.Is(err, ErrBadResize) {
		t.Fatalf("Grow(0): %v, want ErrBadResize", err)
	}
	if _, err := o.Shrink(0); !errors.Is(err, ErrBadResize) {
		t.Fatalf("Shrink(0): %v, want ErrBadResize", err)
	}
	if _, err := o.Shrink(o.Components()); !errors.Is(err, ErrBadResize) {
		t.Fatalf("Shrink(all): %v, want ErrBadResize", err)
	}
	if o.Epoch() != epochs {
		t.Fatalf("rejected resizes installed epochs: %d -> %d", epochs, o.Epoch())
	}
	st := o.Stats()
	if st.Grows != 2 || st.Shrinks != 1 || st.EpochInstalls != 3 || st.Epoch != 3 {
		t.Fatalf("epoch counters = %+v, want 2 grows, 1 shrink, 3 installs, epoch 3", st)
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
	if grown != 7 || o.Components() != 7 || o.Epoch() != 2 {
		t.Fatalf("after raced grow: returned %d, n=%d, epoch=%d; want 7/7/2", grown, o.Components(), o.Epoch())
	}
	// Both universes preserved component 0.
	if vals, err := o.PartialScan([]int{0}); err != nil || vals[0] != 1 {
		t.Fatalf("component 0 after raced grows = %v, %v; want [1]", vals, err)
	}

	// Same race for Shrink: parked with a 5-component successor, a Grow
	// wins, the shrinker retries against the 8-component universe.
	var shrunk int
	ctl.Spawn("shrinker", func() {
		var err error
		shrunk, err = o.Shrink(2)
		if err != nil {
			t.Errorf("Shrink(2): %v", err)
		}
	})
	if arg, ok := ctl.StepUntil("shrinker", sched.PreEpochInstall); !ok || arg != 5 {
		t.Fatalf("shrinker park arg = %d (ok=%v), want successor size 5", arg, ok)
	}
	if size, err := o.Grow(1); err != nil || size != 8 {
		t.Fatalf("competing Grow(1) = %d, %v; want 8, nil", size, err)
	}
	ctl.RunToCompletion("shrinker")
	if shrunk != 6 || o.Components() != 6 || o.Epoch() != 4 {
		t.Fatalf("after raced shrink: returned %d, n=%d, epoch=%d; want 6/6/4", shrunk, o.Components(), o.Epoch())
	}
}

// TestHelpAcrossEpochsScripted is the grow-vs-walk race: a scanner
// announced under epoch 0 is helped by an updater that pinned epoch 1.
// Because surviving components alias their registry slots across epochs,
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
	// Both named components survive the Grow with their registers aliased,
	// so the exit recheck keeps the view: a pure Grow over the named set
	// costs the scan nothing.
	if st.ViewsDiscarded != 0 {
		t.Fatalf("ViewsDiscarded = %d, want 0: a pure Grow must not cost the scan its view", st.ViewsDiscarded)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("cross-epoch helping leaked %d live announcements", st.LiveAnnouncements)
	}
}

// TestShrinkVsEnrollScripted is the shrink-vs-enroll race: a scanner
// pinned to epoch 0 is enrolled in slots of components a concurrent Shrink
// then drops. The scan must still terminate — after the install, no new
// writer can touch the dropped cells (they reject with ErrBadComponent),
// so the pinned double collect succeeds. The completed view then hits the
// epoch recheck: every named component was dropped, so none aliases the
// current universe's registers and the view is conservatively discarded
// (components dropped at different installs need not share an instant, and
// the recheck applies one uniform rule rather than special-casing the
// single-install history it cannot distinguish). The retake validates the
// named set against the current epoch and surfaces ErrBadComponent — the
// rejection linearizes after the Shrink.
func TestShrinkVsEnrollScripted(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](4).Instrument(ctl)
	if err := o.Update([]int{2, 3}, []int64{30, 40}); err != nil {
		t.Fatal(err)
	}

	var vals []int64
	var scanErr error
	ctl.Spawn("scanner", func() {
		vals, _, scanErr = o.PartialScanInfo([]int{2, 3})
	})
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatal("scanner finished before its first collect gap")
	}
	// Obstruct so the scanner enrolls into epoch 0's slots 2 and 3 — the
	// slots the Shrink is about to drop.
	if err := o.Update([]int{2}, []int64{31}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctl.StepUntil("scanner", sched.PostAnnounce); !ok {
		t.Fatal("scanner finished without announcing")
	}
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatal("scanner finished before its announced collect gap")
	}

	if size, err := o.Shrink(2); err != nil || size != 2 {
		t.Fatalf("Shrink(2) = %d, %v; want 2, nil", size, err)
	}
	// Post-install traffic cannot name the dropped components...
	if err := o.Update([]int{2}, []int64{99}); !errors.Is(err, ErrBadComponent) {
		t.Fatalf("post-shrink Update{2}: %v, want ErrBadComponent", err)
	}
	// ...so the parked scanner's second announced collect is stable. The
	// recheck then parks it once with the pinned epoch as arg, discards the
	// all-dropped view, and the retake's validation rejects.
	if arg, ok := ctl.StepUntil("scanner", sched.PreEpochRecheck); !ok || arg != 0 {
		t.Fatalf("scanner recheck park arg = %d (ok=%v), want pinned epoch 0", arg, ok)
	}
	ctl.RunToCompletion("scanner")
	if !errors.Is(scanErr, ErrBadComponent) {
		t.Fatalf("scan of fully shrunk set = %v, %v; want ErrBadComponent", vals, scanErr)
	}

	st := o.Stats()
	if st.ViewsDiscarded != 1 {
		t.Fatalf("ViewsDiscarded = %d, want exactly 1 (the all-dropped view)", st.ViewsDiscarded)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("shrink-vs-enroll leaked %d live announcements", st.LiveAnnouncements)
	}
	// The seed update (slots 2 and 3) and the obstructing update (slot 2)
	// both ran before the scanner enrolled, so each of their consultations
	// read a nil head — three skips in total, in slots the Shrink then
	// dropped, and no walk. The skip gauge lives on the object, not the
	// universe, so the drop keeps it.
	if st.RegistryWalks != 0 {
		t.Fatalf("RegistryWalks = %d, want 0 (no update ever found an enrollment)", st.RegistryWalks)
	}
	if st.WalksSkipped != 3 {
		t.Fatalf("WalksSkipped = %d, want 3 (seed {2,3} + obstructing {2})", st.WalksSkipped)
	}
	if st.Shrinks != 1 || st.Epoch != 1 {
		t.Fatalf("epoch counters = %+v, want 1 shrink at epoch 1", st)
	}
}

// TestEpochPinBoundaryScripted parks operations at pre-epoch-pin — after
// the call started, before it loads the universe — and resizes underneath
// them: an op that pins AFTER an install validates against the new size in
// both directions (a grown component becomes addressable, a shrunk one is
// rejected). This is the linearization boundary the epoch design claims.
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

	// A scan naming component 2 — valid now — is rejected because the
	// Shrink installs before the scanner pins; the rejection linearizes
	// after the Shrink.
	var scanErr error
	ctl.Spawn("scanner", func() {
		_, scanErr = o.PartialScan([]int{2})
	})
	if _, ok := ctl.StepUntil("scanner", sched.PreEpochPin); !ok {
		t.Fatal("scanner finished before pinning")
	}
	if _, err := o.Shrink(1); err != nil {
		t.Fatal(err)
	}
	ctl.RunToCompletion("scanner")
	if !errors.Is(scanErr, ErrBadComponent) {
		t.Fatalf("scan pinned after Shrink: %v, want ErrBadComponent", scanErr)
	}
}

// runMixedEpochShrinkScan stages the mixed-epoch interleaving ROADMAP item
// #2 suspected and ISSUE 9 closes, with the recheck seam toggled by mutate:
// a scanner over {1, 0} pins epoch 0 and parks in its collect gap holding
// {1: 20, 0: zero-cell}; a Shrink(1)+Grow(1) churn retires component 1's
// register (the regrown one is fresh and zero); a writer pinned to the
// churned epoch stores 11 into component 0 THROUGH THE ALIASED register the
// parked scan reads. The resumed scan is obstructed once (component 0's
// cell moved), announces, and stabilises the view {1: 20, 0: 11} — a pair
// with no common instant: 20's window closes at the Grow's pseudo-zero
// write, before 11's opens. With mutate=true (the pre-fix object) that view
// is returned; with the recheck in place it is discarded — component 1
// fails the aliasing test — and the scan retakes under the churned epoch.
// The recorded history plus final state let the caller convict or acquit.
func runMixedEpochShrinkScan(t *testing.T, mutate bool) (vals []int64, ops []spec.Op[int64], st Stats) {
	t.Helper()
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)
	o.mut.skipEpochRecheck = mutate
	rec := &spec.Recorder[int64]{}

	start := rec.Now()
	seedOp, err := o.UpdateOp([]int{1}, []int64{20})
	if err != nil {
		t.Fatalf("seed update: %v", err)
	}
	rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
		Comps: []int{1}, Vals: []int64{20}, UpdateID: seedOp})

	var scanErr error
	ctl.Spawn("scanner", func() {
		start := rec.Now()
		v, si, err := o.PartialScanInfo([]int{1, 0})
		if err != nil {
			scanErr = err
			return
		}
		vals = v
		rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
			Comps: []int{1, 0}, Vals: v, AdoptedFrom: si.HelperOp})
	})
	// Park in the fast-path collect gap: the first collect holds component
	// 1's seeded cell and component 0's zero cell, both of epoch 0.
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatal("scanner finished before its first collect gap")
	}

	// The churn, uncontrolled on the test goroutine: component 1 leaves and
	// comes back fresh; component 0 survives, its register aliased forward.
	start = rec.Now()
	size, err := o.Shrink(1)
	if err != nil {
		t.Fatalf("Shrink(1): %v", err)
	}
	rec.Add(spec.Op[int64]{Kind: spec.Shrink, Start: start, End: rec.Now(), Delta: 1, Size: size})
	start = rec.Now()
	size, err = o.Grow(1)
	if err != nil {
		t.Fatalf("Grow(1): %v", err)
	}
	rec.Add(spec.Op[int64]{Kind: spec.Grow, Start: start, End: rec.Now(), Delta: 1, Size: size})

	// The writer pins the churned epoch and stores through the survivor's
	// aliased register — the store the parked scan's second collect sees.
	start = rec.Now()
	wOp, err := o.UpdateOp([]int{0}, []int64{11})
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
		Comps: []int{0}, Vals: []int64{11}, UpdateID: wOp})

	// Resume: the second collect is torn by the writer, the scan announces,
	// and the announced double collect stabilises {1: 20, 0: 11} — nobody
	// can write either pinned cell any more. The recheck point fires with
	// the pinned epoch as arg in both arms; only the intact one acts on it.
	if arg, ok := ctl.StepUntil("scanner", sched.PreEpochRecheck); !ok || arg != 0 {
		t.Fatalf("scanner recheck park arg = %d (ok=%v), want pinned epoch 0", arg, ok)
	}
	ctl.RunToCompletion("scanner")
	if scanErr != nil {
		t.Fatalf("scanner: %v", scanErr)
	}
	return vals, rec.Ops(), o.Stats()
}

// TestMixedEpochScanAcrossShrinkScripted settles ROADMAP item #2 in both
// directions. The pre-fix arm (recheck seam disabled) returns the stable
// mixed-epoch view {1: 20, 0: 11} and spec.Check convicts it — the
// violation is real, pinning alone does not exclude it. The intact arm
// runs the identical interleaving, discards exactly that view at the
// recheck, retakes under the churned epoch, and returns {1: 0, 0: 11},
// which the spec admits (the instant after the Grow and the write).
func TestMixedEpochScanAcrossShrinkScripted(t *testing.T) {
	vals, ops, _ := runMixedEpochShrinkScan(t, true)
	if len(vals) != 2 || vals[0] != 20 || vals[1] != 11 {
		t.Fatalf("pre-fix scan = %v, want the mixed-epoch view [20 11]", vals)
	}
	if err := spec.Check(2, ops); err == nil {
		t.Fatalf("pre-fix mixed-epoch view %v passed spec.Check; the scripted scenario no longer convicts the bug", vals)
	} else {
		t.Logf("pre-fix view convicted: %v", err)
	}

	vals, ops, st := runMixedEpochShrinkScan(t, false)
	if len(vals) != 2 || vals[0] != 0 || vals[1] != 11 {
		t.Fatalf("intact scan = %v, want the retaken view [0 11]", vals)
	}
	if err := spec.Check(2, ops); err != nil {
		t.Fatalf("intact history rejected by spec: %v", err)
	}
	if err := spec.CheckProvenance(ops); err != nil {
		t.Fatalf("intact history rejected by provenance check: %v", err)
	}
	if st.ViewsDiscarded != 1 {
		t.Fatalf("ViewsDiscarded = %d, want exactly 1 (the mixed-epoch view)", st.ViewsDiscarded)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("discard/retake leaked %d live announcements", st.LiveAnnouncements)
	}
	if st.Shrinks != 1 || st.Grows != 1 || st.Epoch != 2 {
		t.Fatalf("epoch counters = %+v, want 1 shrink + 1 grow at epoch 2", st)
	}
}

// TestShrinkDuringFullScanScripted is the full-universe instance of the
// mixed-epoch bug — the easiest to hit, since Scan names every component of
// its pinned epoch and ANY Shrink drops one of them. A scan over epoch 0's
// {0, 1} parks mid-collect, a Shrink drops component 1, and a post-install
// writer moves the survivor. The stabilised pinned view {0: 11, 1: 20}
// straddles the install, so the recheck discards it; the retake re-resolves
// the id set from the current universe (this is what the full flag in
// scanPinned is for) and returns the one-component view — no
// ErrBadComponent, because a full scan names no fixed ids.
func TestShrinkDuringFullScanScripted(t *testing.T) {
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
	if size, err := o.Shrink(1); err != nil || size != 1 {
		t.Fatalf("Shrink(1) = %d, %v; want 1, nil", size, err)
	}
	// The epoch-1 writer stores through component 0's aliased register.
	if err := o.Update([]int{0}, []int64{11}); err != nil {
		t.Fatal(err)
	}
	if arg, ok := ctl.StepUntil("scanner", sched.PreEpochRecheck); !ok || arg != 0 {
		t.Fatalf("scanner recheck park arg = %d (ok=%v), want pinned epoch 0", arg, ok)
	}
	ctl.RunToCompletion("scanner")
	if scanErr != nil {
		t.Fatalf("Scan: %v", scanErr)
	}
	if len(vals) != 1 || vals[0] != 11 {
		t.Fatalf("post-discard full scan = %v, want [11] (the shrunk universe)", vals)
	}
	st := o.Stats()
	if st.ViewsDiscarded != 1 {
		t.Fatalf("ViewsDiscarded = %d, want exactly 1", st.ViewsDiscarded)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("full-scan discard leaked %d live announcements", st.LiveAnnouncements)
	}
}
