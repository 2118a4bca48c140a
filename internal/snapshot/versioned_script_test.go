package snapshot

import (
	"testing"

	"partialsnapshot/internal/sched"
)

// Scripted regressions for the races the seqlock fast path must lose
// gracefully: a write landing inside the validation window (the scan must
// tear and retry, never return the mix) and a resize landing inside an
// escalated scan. The escalated path inherits LockFree's per-component
// recheck: a slow-path view survives a mid-scan install iff every named
// component still aliases the pinned epoch's register — a pure Grow over
// the named set passes, a Shrink touching it discards and retakes under
// the new epoch. The DFS tests prove no interleaving misbehaves; these pin
// the canonical ones step by step so a regression names the exact
// transition that broke.

// TestScriptedValidateVsWrite parks the scanner after a clean optimistic
// pass, exactly before its validation re-read, and completes a write to a
// scanned component in the gap. The resumed validation must reject the
// pass — the stamp sum moved — and the retry must return the
// post-write view, counting one torn read and zero escalations.
func TestScriptedValidateVsWrite(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)
	o.attempts = versionedAttempts
	if err := o.Update([]int{0, 1}, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}

	var vals []int64
	var info ScanInfo
	ctl.Spawn("scanner", func() {
		var err error
		vals, info, err = o.PartialScanInfo([]int{0, 1})
		if err != nil {
			t.Errorf("scanner: %v", err)
		}
	})
	// Park with {1, 2} read but unvalidated: the whole first pass sits in
	// the scanner's hands while the world is still allowed to move.
	if arg, ok := ctl.StepUntil("scanner", sched.PreValidate); !ok || arg != 0 {
		t.Fatalf("scanner park arg = %d (ok=%v), want attempt 0 at pre-validate", arg, ok)
	}
	// The write completes inside the validation window.
	if err := o.Update([]int{0}, []int64{10}); err != nil {
		t.Fatal(err)
	}
	ctl.RunToCompletion("scanner")

	// The stale pass was rejected and the retry saw the write: the stale
	// {1, 2} never escapes, and neither does the mix {10, 2}'s torn
	// sibling {1, 2}-with-10 — the second attempt reads both components
	// after the write, atomically.
	if vals == nil || vals[0] != 10 || vals[1] != 2 {
		t.Fatalf("scan after raced validation = %v, want [10 2]", vals)
	}
	if info.Retries != 1 {
		t.Fatalf("scan retries = %d, want exactly the one torn attempt", info.Retries)
	}
	st := o.Stats()
	if st.TornReads != 1 || st.OptimisticScans != 1 || st.Escalations != 0 {
		t.Fatalf("gauges after raced validation = torn %d, optimistic %d, escalated %d; want 1/1/0",
			st.TornReads, st.OptimisticScans, st.Escalations)
	}
	// The torn retry never touched the registry: the scan announced
	// nothing, so the updaters' pre-store walks found nobody enrolled.
	for c := 0; c < 2; c++ {
		if _, visited := o.SlotStats(c); visited != 0 {
			t.Fatalf("slot %d walk visited %d records; the optimistic scan must not enroll", c, visited)
		}
	}
}

// TestScriptedEscalateVsGrow drives a scan through the full fallback
// ladder against a growing object: a write tears its only optimistic
// attempt (budget 1), it parks at the escalation boundary, and once inside
// the announced slow path a Grow installs a new epoch in its double-collect
// gap. Both named components survive the Grow with their registers aliased,
// so the per-component exit recheck accepts the slow-path view as it
// stands: a pure Grow over the named set costs the escalated scan nothing.
// (The optimistic fast path stays strict — ANY install tears it — which is
// why the strict universe check lives there and the refined one here.)
func TestScriptedEscalateVsGrow(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)
	o.attempts = 1
	if err := o.Update([]int{0, 1}, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}

	var vals []int64
	var info ScanInfo
	ctl.Spawn("scanner", func() {
		var err error
		vals, info, err = o.PartialScanInfo([]int{0, 1})
		if err != nil {
			t.Errorf("scanner: %v", err)
		}
	})
	// Tear the single optimistic attempt with a completed write in its
	// validation window.
	if arg, ok := ctl.StepUntil("scanner", sched.PreValidate); !ok || arg != 0 {
		t.Fatalf("scanner park arg = %d (ok=%v), want attempt 0 at pre-validate", arg, ok)
	}
	if err := o.Update([]int{1}, []int64{20}); err != nil {
		t.Fatal(err)
	}
	// The budget is spent: the scan parks at the escalation boundary with
	// exactly one consumed attempt.
	if arg, ok := ctl.StepUntil("scanner", sched.PreEscalate); !ok || arg != 1 {
		t.Fatalf("scanner park arg = %d (ok=%v), want escalation after 1 attempt", arg, ok)
	}
	// Inside the slow path now: park in the double-collect gap and install
	// a new epoch under the announced scan.
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatalf("escalated scan finished before its collect gap")
	}
	if size, err := o.Grow(1); err != nil || size != 3 {
		t.Fatalf("Grow(1) = %d, %v; want 3, nil", size, err)
	}
	ctl.RunToCompletion("scanner")

	// The slow-path view survived the recheck — both named registers are
	// aliased across the Grow — and carries the post-write values.
	if vals == nil || vals[0] != 1 || vals[1] != 20 {
		t.Fatalf("scan after raced grow = %v, want [1 20]", vals)
	}
	st := o.Stats()
	if st.Escalations != 1 || st.OptimisticScans != 0 {
		t.Fatalf("gauges after raced grow = optimistic %d, escalated %d; want 0/1", st.OptimisticScans, st.Escalations)
	}
	// One torn read — the write that tore the optimistic attempt. The Grow
	// does NOT invalidate the slow-path view: the named set survived intact.
	if st.TornReads != 1 {
		t.Fatalf("torn reads = %d, want 1 (only the write-torn optimistic attempt)", st.TornReads)
	}
	if st.ViewsDiscarded != 0 {
		t.Fatalf("ViewsDiscarded = %d, want 0: a pure Grow must not cost the escalated view", st.ViewsDiscarded)
	}
	if o.Components() != 3 || o.Epoch() != 1 {
		t.Fatalf("object after raced grow: n=%d epoch=%d, want 3/1", o.Components(), o.Epoch())
	}
	if info.Retries < 1 {
		t.Fatalf("scan info retries = %d, want at least the torn optimistic attempt", info.Retries)
	}
}

// TestScriptedEscalateVsShrinkRegrow is the discarding sibling of
// TestScriptedEscalateVsGrow: the same fallback ladder, but the resize that
// lands in the escalated scan's collect gap is a Shrink(1)+Grow(1) that
// retires component 1's register and re-creates it fresh. The slow-path
// view pairs the pre-churn 20 with a set that no longer exists as observed,
// so the exit recheck must discard it — counted by ViewsDiscarded, not
// TornReads — and the retake under the regrown epoch returns the fresh
// zero.
func TestScriptedEscalateVsShrinkRegrow(t *testing.T) {
	ctl := sched.NewController()
	o := NewLockFree[int64](2).Instrument(ctl)
	o.attempts = 1
	if err := o.Update([]int{0, 1}, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}

	var vals []int64
	ctl.Spawn("scanner", func() {
		var err error
		vals, _, err = o.PartialScanInfo([]int{0, 1})
		if err != nil {
			t.Errorf("scanner: %v", err)
		}
	})
	if arg, ok := ctl.StepUntil("scanner", sched.PreValidate); !ok || arg != 0 {
		t.Fatalf("scanner park arg = %d (ok=%v), want attempt 0 at pre-validate", arg, ok)
	}
	if err := o.Update([]int{1}, []int64{20}); err != nil {
		t.Fatal(err)
	}
	if arg, ok := ctl.StepUntil("scanner", sched.PreEscalate); !ok || arg != 1 {
		t.Fatalf("scanner park arg = %d (ok=%v), want escalation after 1 attempt", arg, ok)
	}
	// Park in the slow path's collect gap holding {1, 20}, then churn
	// component 1 away and back: its register retires and comes back fresh.
	if _, ok := ctl.StepUntil("scanner", sched.PostFirstCollect); !ok {
		t.Fatalf("escalated scan finished before its collect gap")
	}
	if size, err := o.Shrink(1); err != nil || size != 1 {
		t.Fatalf("Shrink(1) = %d, %v; want 1, nil", size, err)
	}
	if size, err := o.Grow(1); err != nil || size != 2 {
		t.Fatalf("Grow(1) = %d, %v; want 2, nil", size, err)
	}
	// The recheck fires with the pinned (pre-churn) epoch as its arg.
	if arg, ok := ctl.StepUntil("scanner", sched.PreEpochRecheck); !ok || arg != 0 {
		t.Fatalf("scanner recheck park arg = %d (ok=%v), want pinned epoch 0", arg, ok)
	}
	ctl.RunToCompletion("scanner")

	// The stale {1, 20} was discarded — component 1 no longer aliases the
	// pinned register — and the retake under epoch 2 sees the regrown zero.
	if vals == nil || vals[0] != 1 || vals[1] != 0 {
		t.Fatalf("scan after raced shrink+regrow = %v, want [1 0]", vals)
	}
	st := o.Stats()
	if st.TornReads != 1 {
		t.Fatalf("torn reads = %d, want 1 (only the write-torn optimistic attempt)", st.TornReads)
	}
	if st.ViewsDiscarded != 1 {
		t.Fatalf("ViewsDiscarded = %d, want exactly 1 (the straddling slow-path view)", st.ViewsDiscarded)
	}
	if st.Escalations != 1 || st.OptimisticScans != 0 {
		t.Fatalf("gauges after raced churn = optimistic %d, escalated %d; want 0/1", st.OptimisticScans, st.Escalations)
	}
	if st.LiveAnnouncements != 0 {
		t.Fatalf("discard/retake leaked %d live announcements", st.LiveAnnouncements)
	}
	if o.Components() != 2 || o.Epoch() != 2 {
		t.Fatalf("object after churn: n=%d epoch=%d, want 2/2", o.Components(), o.Epoch())
	}
}

// TestBudgetZeroIsThePapersProtocol pins what the optimistic budget costs
// and where. At budget 0 (ImplLockFree) the object is the paper's
// protocol: no write touches a stamp and no scan touches the optimistic
// gauges. With the versioned budget every write advances exactly the
// written components' stamps by one version (1<<32), leaving the
// writers-in-flight half at zero. Making the stamp adds unconditional
// fails the first arm.
func TestBudgetZeroIsThePapersProtocol(t *testing.T) {
	for _, impl := range []Impl{ImplLockFree, ImplVersioned} {
		obj, err := New[int64](impl, 8)
		if err != nil {
			t.Fatal(err)
		}
		o := obj.(*LockFree[int64])
		stamps := func() []uint64 {
			u := o.uni.Load()
			s := make([]uint64, len(u.regs))
			for c, r := range u.regs {
				s[c] = r.stamp.Load()
			}
			return s
		}
		var step uint64
		if impl == ImplVersioned {
			step = 1 << 32
		}
		for i := 0; i < 5; i++ {
			ids := []int{i, i + 3}
			before := stamps()
			if err := o.Update(ids, []int64{int64(i), int64(i)}); err != nil {
				t.Fatal(err)
			}
			after := stamps()
			for c := range after {
				want := before[c]
				if c == ids[0] || c == ids[1] {
					want += step
				}
				if after[c] != want {
					t.Fatalf("%s: write %v moved component %d's stamp from %#x to %#x, want %#x",
						impl, ids, c, before[c], after[c], want)
				}
			}
			if _, err := o.PartialScan(ids); err != nil {
				t.Fatal(err)
			}
			if _, err := o.Scan(); err != nil {
				t.Fatal(err)
			}
		}
		st := o.Stats()
		if impl == ImplLockFree {
			for c, s := range stamps() {
				if s != 0 {
					t.Fatalf("lockfree: component %d's stamp reads %#x, want 0", c, s)
				}
			}
			if st.OptimisticScans != 0 || st.Escalations != 0 || st.TornReads != 0 {
				t.Fatalf("lockfree touched the optimistic gauges: %+v", st)
			}
		} else if st.OptimisticScans != 10 || st.Escalations != 0 || st.TornReads != 0 {
			t.Fatalf("versioned: uncontended scans were not all optimistic: %+v", st)
		}
	}
}
