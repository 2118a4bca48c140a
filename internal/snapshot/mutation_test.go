package snapshot

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"partialsnapshot/internal/sched"
	"partialsnapshot/internal/spec"
)

// Mutation sanity check: a model checker that can only pass is worthless,
// so this file re-introduces the pre-wait-free bug on purpose — an
// injected helpBound makes an obstructing updater's embedded scan give up
// without posting help, exactly the bounded helper PR 2 removed — and
// asserts the DFSExplorer FINDS the resulting protocol violation within a
// small preemption bound, while the identical search on the intact object
// exhausts cleanly. The searcher demonstrably distinguishes the paper's
// protocol from its best-known wrong neighbour.

// mutationScenario stages the smallest state from which one preemption
// separates the intact protocol from the bounded one. Deterministic setup
// (scripted, not explored):
//
//   - "obstructor" has walked the still-empty slot 0 and parked before its
//     store — the finitely-many pre-walk updates of the termination
//     argument, owing the scanner nothing.
//   - "scanner" was obstructed out of its fast path (by a direct setup
//     update), announced {0,1}, and parked inside its announced collect
//     gap.
//   - "helper" is an update of component 0 parked at its start: every walk
//     it makes happens after the announcement, so the protocol obliges it
//     to leave help on the record before storing.
//
// The search then owns the schedule. The oracle's trip wire is the
// walk-after-enroll ⇒ help-before-store obligation itself: if the trace
// shows the scanner failing a post-helper-store double collect twice (the
// second failed iteration proves it found no help to adopt) while nobody
// ever posted help and the scan never adopted, the wait-freedom argument
// has a hole. With helpBound=1 the obstructor's store inside the helper's
// embedded collect gap makes the helper give up and store anyway — one
// preemption, caught; with helpBound=0 (intact) no schedule can trip it.
func mutationScenario(bound int) sched.Scenario {
	return func(c *sched.Controller) sched.Oracle {
		o := NewLockFree[int64](2).Instrument(c)
		o.mut.helpBound = bound
		rec := &spec.Recorder[int64]{}
		var mu sync.Mutex
		var opErrs []error
		fail := func(err error) {
			mu.Lock()
			opErrs = append(opErrs, err)
			mu.Unlock()
		}
		setupErr := func(format string, args ...any) sched.Oracle {
			err := fmt.Errorf(format, args...)
			return func(sched.Trace) error { return err }
		}
		update := func(name string, val int64) {
			c.Spawn(name, func() {
				start := rec.Now()
				id, err := o.UpdateOp([]int{0}, []int64{val})
				if err != nil {
					fail(fmt.Errorf("%s: %w", name, err))
					return
				}
				rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
					Comps: []int{0}, Vals: []int64{val}, UpdateID: id})
			})
		}

		// Pre-positioned obstructor: past its registry walk, store pending.
		update("obstructor", 2)
		if _, ok := c.StepUntil("obstructor", sched.PreCellStore); !ok {
			return setupErr("obstructor finished before parking at its store")
		}

		// Scanner driven into its announced collect gap.
		var info ScanInfo
		var scanVals []int64
		c.Spawn("scanner", func() {
			start := rec.Now()
			vals, si, err := o.PartialScanInfo([]int{0, 1})
			if err != nil {
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
			scanVals, info = vals, si
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
				Comps: []int{0, 1}, Vals: vals, AdoptedFrom: si.HelperOp})
		})
		if _, ok := c.StepUntil("scanner", sched.PostFirstCollect); !ok {
			return setupErr("scanner finished before its fast collect gap")
		}
		// The fast-path obstruction runs uncontrolled on the setup
		// goroutine: it walks the (still announcement-free) slot and stores.
		start := rec.Now()
		setupOp, err := o.UpdateOp([]int{0}, []int64{1})
		if err != nil {
			return setupErr("setup update: %v", err)
		}
		rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
			Comps: []int{0}, Vals: []int64{1}, UpdateID: setupOp})
		if _, ok := c.StepUntil("scanner", sched.PostAnnounce); !ok {
			return setupErr("scanner finished without announcing")
		}
		if _, ok := c.StepUntil("scanner", sched.PostFirstCollect); !ok {
			return setupErr("scanner finished before its announced collect gap")
		}

		// The helper: spawned after the announcement, so its walk of slot 0
		// is oblige-to-help by construction. The search explores from here.
		update("helper", 3)

		return func(tr sched.Trace) error {
			mu.Lock()
			defer mu.Unlock()
			if len(opErrs) > 0 {
				return opErrs[0]
			}
			ops := rec.Ops()
			if err := spec.Check(2, ops); err != nil {
				return fmt.Errorf("schedule rejected by spec: %w", err)
			}
			if err := spec.CheckProvenance(ops); err != nil {
				return fmt.Errorf("schedule rejected by provenance check: %w", err)
			}
			// The wait-freedom obligation. Find the helper's store step...
			helperStore := -1
			for i, st := range tr {
				if st.Gor == "helper" && st.Point == sched.PreCellStore {
					helperStore = i
					break
				}
			}
			if helperStore < 0 {
				return nil // schedule ended before the helper stored; nothing owed
			}
			// ...and count announced-loop iterations the scanner completed
			// after it. Two resumes from the collect gap after the store
			// mean: one iteration failed against the store AND found no
			// help posted (else it would have adopted, not re-parked).
			post := 0
			for _, st := range tr[helperStore+1:] {
				if st.Gor == "scanner" && st.Point == sched.PostFirstCollect {
					post++
				}
			}
			if post >= 2 && !info.Adopted && o.Stats().HelpsPosted == 0 {
				return fmt.Errorf(
					"wait-freedom violation: helper walked slot 0 after the announcement, stored, obstructed the scanner (%d post-store collect iterations, final view %v) and never posted help",
					post, scanVals)
			}
			return nil
		}
	}
}

// TestMutationBoundedHelperIsCaught re-bounds helping via the injected
// limit and requires the systematic search to find the starvation-shaped
// violation within two preemptions — then shrink it and replay it. The
// control arm runs the identical search against the intact object and
// must exhaust with every schedule passing.
func TestMutationBoundedHelperIsCaught(t *testing.T) {
	d := &sched.DFSExplorer{MaxPreemptions: 2, MaxSchedules: 20000, Timeout: 30 * time.Second}

	intact := d.Explore(mutationScenario(0))
	if intact.Failure != nil {
		t.Fatalf("intact protocol failed schedule %d: %v\n%s",
			intact.Failure.Schedule, intact.Failure.Err, intact.Failure.Trace)
	}
	if !intact.Exhausted {
		t.Fatalf("intact search did not exhaust: %+v", intact)
	}

	mutated := d.Explore(mutationScenario(1))
	if mutated.Failure == nil {
		t.Fatalf("the searcher cannot fail: bounded helper survived %d schedules at preemption bound %d",
			mutated.Schedules, d.MaxPreemptions)
	}
	f := mutated.Failure
	if len(f.Trace) > len(f.RawTrace) {
		t.Fatalf("shrunk trace grew: %d > %d steps", len(f.Trace), len(f.RawTrace))
	}
	// The shrunk trace replays to a failure without any searching.
	if _, err := d.Replay(mutationScenario(1), f.Trace); err == nil {
		t.Fatalf("shrunk failing trace replayed clean:\n%s", f.Trace)
	}
	// And the intact object sails through the schedule that kills the
	// mutant. Tolerant replay, because the intact helper takes extra yield
	// points (it announces its embedded record instead of giving up), so a
	// strict position-checked replay cannot apply across the two variants.
	c := sched.NewController()
	intactOracle := mutationScenario(0)(c)
	got, err := sched.ReplayTrace(c, f.Trace, false)
	if err != nil {
		t.Fatalf("tolerant replay on the intact object broke down: %v", err)
	}
	if err := intactOracle(got); err != nil {
		t.Fatalf("intact object failed the mutant-killing schedule: %v\n%s", err, got)
	}
	t.Logf("mutant caught at schedule %d/%d: %v\nshrunk trace (%d steps):\n%s",
		f.Schedule, mutated.Schedules, f.Err, len(f.Trace), f.Trace)
}

// earlySummaryDecrementScenario stages the smallest state in which handing
// a slot group's announced count back before the record retires loses a
// help obligation. Deterministic setup (scripted, not explored):
//
//   - "scanner" was obstructed out of its fast path on {1,2}, announced —
//     with the mutant active, enroll raises the group count and gives it
//     straight back, so the fully-enrolled live record sits behind a
//     summary that reads zero — and parked inside its announced collect
//     gap.
//   - "walker" is an update of component 2 spawned after the announcement:
//     the protocol obliges it to find the record and post help before
//     storing.
//
// The search owns the schedule from there. The intact walker's summary
// load reads nonzero (enroll's decrement waits for retire), so it walks
// slot 2, finds the record and posts help before storing. The mutant reads
// zero, skips the walk the soundness argument says is unnecessary — and
// stores through component 2 anyway, obstructing the very scanner whose
// record it never saw. The trip wire is the same lost-help shape as the
// unpinned-epoch scenario: the scanner's final view shows the walker's
// store (so the walker consulted the summary while the record was
// demonstrably fully announced and live), yet no help was ever posted and
// the scan never adopted. On the intact object that outcome is
// unreachable.
func earlySummaryDecrementScenario(mutate bool) sched.Scenario {
	return func(c *sched.Controller) sched.Oracle {
		o := NewLockFree[int64](3).Instrument(c)
		o.mut.earlySummaryDecrement = mutate
		rec := &spec.Recorder[int64]{}
		var mu sync.Mutex
		var opErrs []error
		fail := func(err error) {
			mu.Lock()
			opErrs = append(opErrs, err)
			mu.Unlock()
		}
		setupErr := func(format string, args ...any) sched.Oracle {
			err := fmt.Errorf(format, args...)
			return func(sched.Trace) error { return err }
		}
		record := func(kind spec.Kind, start int64, comps []int, vals []int64, id uint64) {
			rec.Add(spec.Op[int64]{Kind: kind, Start: start, End: rec.Now(),
				Comps: comps, Vals: vals, UpdateID: id})
		}

		// Seed and drive the scanner into its announced collect gap.
		start := rec.Now()
		seedOp, err := o.UpdateOp([]int{1, 2}, []int64{20, 30})
		if err != nil {
			return setupErr("seed update: %v", err)
		}
		record(spec.Update, start, []int{1, 2}, []int64{20, 30}, seedOp)

		var info ScanInfo
		var scanVals []int64
		c.Spawn("scanner", func() {
			start := rec.Now()
			vals, si, err := o.PartialScanInfo([]int{1, 2})
			if err != nil {
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
			scanVals, info = vals, si
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
				Comps: []int{1, 2}, Vals: vals, AdoptedFrom: si.HelperOp})
		})
		if _, ok := c.StepUntil("scanner", sched.PostFirstCollect); !ok {
			return setupErr("scanner finished before its fast collect gap")
		}
		start = rec.Now()
		obstructOp, err := o.UpdateOp([]int{2}, []int64{31})
		if err != nil {
			return setupErr("obstructing update: %v", err)
		}
		record(spec.Update, start, []int{2}, []int64{31}, obstructOp)
		if _, ok := c.StepUntil("scanner", sched.PostAnnounce); !ok {
			return setupErr("scanner finished without announcing")
		}
		if _, ok := c.StepUntil("scanner", sched.PostFirstCollect); !ok {
			return setupErr("scanner finished before its announced collect gap")
		}

		// The walker: spawned after the announcement, so its summary load is
		// oblige-to-walk by construction. The search explores from here.
		c.Spawn("walker", func() {
			start := rec.Now()
			id, err := o.UpdateOp([]int{2}, []int64{333})
			if err != nil {
				fail(fmt.Errorf("walker: %w", err))
				return
			}
			record(spec.Update, start, []int{2}, []int64{333}, id)
		})

		return func(tr sched.Trace) error {
			mu.Lock()
			defer mu.Unlock()
			if len(opErrs) > 0 {
				return opErrs[0]
			}
			ops := rec.Ops()
			if err := spec.Check(3, ops); err != nil {
				return fmt.Errorf("schedule rejected by spec: %w", err)
			}
			if err := spec.CheckProvenance(ops); err != nil {
				return fmt.Errorf("schedule rejected by provenance check: %w", err)
			}
			if scanVals == nil {
				return nil // schedule ended before the scan completed
			}
			if scanVals[1] == 333 && !info.Adopted && o.Stats().HelpsPosted == 0 {
				return fmt.Errorf(
					"lost help obligation: the walker's store obstructed the scanner (final view %v) after a summary read that ran while the record was fully announced and live, yet no help was posted — the announced count was handed back before retirement",
					scanVals)
			}
			return nil
		}
	}
}

// TestMutationEarlySummaryDecrementIsConvicted injects the early summary
// decrement via its seam and requires the systematic search to find the
// lost-help-obligation schedule within two preemptions — then shrink and
// replay it. The control arm runs the identical search against the intact
// object and must exhaust with every schedule passing: holding the group
// count for the record's whole live span, not luck, is what makes the
// summary skip sound.
func TestMutationEarlySummaryDecrementIsConvicted(t *testing.T) {
	d := &sched.DFSExplorer{MaxPreemptions: 2, MaxSchedules: 20000, Timeout: 30 * time.Second}

	intact := d.Explore(earlySummaryDecrementScenario(false))
	if intact.Failure != nil {
		t.Fatalf("intact protocol failed schedule %d: %v\n%s",
			intact.Failure.Schedule, intact.Failure.Err, intact.Failure.Trace)
	}
	if !intact.Exhausted {
		t.Fatalf("intact search did not exhaust: %+v", intact)
	}

	mutated := d.Explore(earlySummaryDecrementScenario(true))
	if mutated.Failure == nil {
		t.Fatalf("the searcher cannot fail: early summary decrement survived %d schedules at preemption bound %d",
			mutated.Schedules, d.MaxPreemptions)
	}
	f := mutated.Failure
	if len(f.Trace) > len(f.RawTrace) {
		t.Fatalf("shrunk trace grew: %d > %d steps", len(f.Trace), len(f.RawTrace))
	}
	if _, err := d.Replay(earlySummaryDecrementScenario(true), f.Trace); err == nil {
		t.Fatalf("shrunk failing trace replayed clean:\n%s", f.Trace)
	}
	// The intact object sails through the mutant-killing schedule. Tolerant
	// replay: the intact walker takes extra yield points (it walks the slot
	// and helps where the mutant skipped), so strict positions cannot apply.
	c := sched.NewController()
	intactOracle := earlySummaryDecrementScenario(false)(c)
	got, err := sched.ReplayTrace(c, f.Trace, false)
	if err != nil {
		t.Fatalf("tolerant replay on the intact object broke down: %v", err)
	}
	if err := intactOracle(got); err != nil {
		t.Fatalf("intact object failed the mutant-killing schedule: %v\n%s", err, got)
	}
	t.Logf("mutant caught at schedule %d/%d: %v\nshrunk trace (%d steps):\n%s",
		f.Schedule, mutated.Schedules, f.Err, len(f.Trace), f.Trace)
}

// unpinnedEpochScenario stages the smallest state in which walking the
// wrong epoch's registry loses a help obligation. Deterministic setup
// (scripted, not explored):
//
//   - "scanner" pinned epoch 0 (3 components), was obstructed out of its
//     fast path on {1,2}, announced — enrolling in epoch 0's slots 1 and
//     2 — and parked inside its announced collect gap.
//   - "walker" is an update of component 2 that pinned epoch 0 and parked
//     at pre-slot-walk: registry consultation still ahead of it.
//   - The setup goroutine then runs Shrink(1) + Grow(1): epoch 2 has a
//     FRESH slot and cell for component 2 — the epoch-0 enrollment is not
//     in it.
//
// The search owns the schedule from there. The intact walker consults its
// PINNED universe's slot 2, finds the epoch-0 enrollment, and posts help
// before storing. The mutant (unpinnedEpoch=true) re-loads the universe at
// walk time, walks epoch 2's fresh empty slot, finds nobody — and stores
// through the pinned cell anyway, obstructing the very scanner it missed.
// The trip wire: the scanner's final view shows the walker's store (so the
// walker's pre-store walk ran while the record was demonstrably live), yet
// the scan completed unhelped and unadopted. On the intact object that
// outcome is unreachable: a live-record walk posts help, and the first
// post-store collect failure adopts it.
func unpinnedEpochScenario(mutate bool) sched.Scenario {
	return func(c *sched.Controller) sched.Oracle {
		o := NewLockFree[int64](3).Instrument(c)
		o.mut.unpinnedEpoch = mutate
		// Decouple the defence layers: the exit recheck (scanPinned) would
		// discard any view that straddles the shrink-regrow and retake it
		// under epoch 2 — masking the very evidence this scenario convicts
		// on (the walker's store visible in an unhelped scan). Disabling it
		// in BOTH arms keeps the walker's obligation the only thing under
		// test, and is sound here because every actor is pinned to epoch 0
		// before the churn: with no epoch-2 writer, every epoch-0 view is
		// single-instant and the intact arm stays spec-clean. The recheck
		// itself has its own conviction test (skipEpochRecheckScenario).
		o.mut.skipEpochRecheck = true
		rec := &spec.Recorder[int64]{}
		var mu sync.Mutex
		var opErrs []error
		fail := func(err error) {
			mu.Lock()
			opErrs = append(opErrs, err)
			mu.Unlock()
		}
		setupErr := func(format string, args ...any) sched.Oracle {
			err := fmt.Errorf(format, args...)
			return func(sched.Trace) error { return err }
		}
		record := func(kind spec.Kind, start int64, comps []int, vals []int64, id uint64, delta, size int) {
			rec.Add(spec.Op[int64]{Kind: kind, Start: start, End: rec.Now(),
				Comps: comps, Vals: vals, UpdateID: id, Delta: delta, Size: size})
		}

		// Seed epoch 0 and drive the scanner into its announced collect gap.
		start := rec.Now()
		seedOp, err := o.UpdateOp([]int{1, 2}, []int64{20, 30})
		if err != nil {
			return setupErr("seed update: %v", err)
		}
		record(spec.Update, start, []int{1, 2}, []int64{20, 30}, seedOp, 0, 0)

		var info ScanInfo
		var scanVals []int64
		c.Spawn("scanner", func() {
			start := rec.Now()
			vals, si, err := o.PartialScanInfo([]int{1, 2})
			if err != nil {
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
			scanVals, info = vals, si
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
				Comps: []int{1, 2}, Vals: vals, AdoptedFrom: si.HelperOp})
		})
		if _, ok := c.StepUntil("scanner", sched.PostFirstCollect); !ok {
			return setupErr("scanner finished before its fast collect gap")
		}
		start = rec.Now()
		obstructOp, err := o.UpdateOp([]int{2}, []int64{31})
		if err != nil {
			return setupErr("obstructing update: %v", err)
		}
		record(spec.Update, start, []int{2}, []int64{31}, obstructOp, 0, 0)
		if _, ok := c.StepUntil("scanner", sched.PostAnnounce); !ok {
			return setupErr("scanner finished without announcing")
		}
		if _, ok := c.StepUntil("scanner", sched.PostFirstCollect); !ok {
			return setupErr("scanner finished before its announced collect gap")
		}

		// The walker pins epoch 0 and parks with its registry walk pending.
		c.Spawn("walker", func() {
			start := rec.Now()
			id, err := o.UpdateOp([]int{2}, []int64{333})
			if err != nil {
				fail(fmt.Errorf("walker: %w", err))
				return
			}
			record(spec.Update, start, []int{2}, []int64{333}, id, 0, 0)
		})
		if arg, ok := c.StepUntil("walker", sched.PreSlotWalk); !ok || arg != 2 {
			return setupErr("walker park arg = %d (ok=%v), want slot 2", arg, ok)
		}

		// Shrink + regrow: epoch 2's component 2 is a fresh slot the
		// epoch-0 enrollment does not live in.
		start = rec.Now()
		size, err := o.Shrink(1)
		if err != nil {
			return setupErr("Shrink(1): %v", err)
		}
		record(spec.Shrink, start, nil, nil, 0, 1, size)
		start = rec.Now()
		size, err = o.Grow(1)
		if err != nil {
			return setupErr("Grow(1): %v", err)
		}
		record(spec.Grow, start, nil, nil, 0, 1, size)

		return func(tr sched.Trace) error {
			mu.Lock()
			defer mu.Unlock()
			if len(opErrs) > 0 {
				return opErrs[0]
			}
			ops := rec.Ops()
			if err := spec.Check(3, ops); err != nil {
				return fmt.Errorf("schedule rejected by spec: %w", err)
			}
			if err := spec.CheckProvenance(ops); err != nil {
				return fmt.Errorf("schedule rejected by provenance check: %w", err)
			}
			if scanVals == nil {
				return nil // schedule ended before the scan completed
			}
			if scanVals[1] == 333 && !info.Adopted && o.Stats().HelpsPosted == 0 {
				return fmt.Errorf(
					"lost help obligation: the walker's store obstructed the scanner (final view %v) after a walk that ran while the record was live, yet no help was posted — the walk consulted an unpinned epoch's registry",
					scanVals)
			}
			return nil
		}
	}
}

// TestMutationUnpinnedEpochWalkerIsConvicted injects the unpinned-epoch
// walker via its seam and requires the systematic search to find the
// lost-help-obligation schedule within two preemptions — then shrink and
// replay it. The control arm runs the identical search, churn included,
// against the intact object and must exhaust with every schedule passing:
// epoch pinning, not luck, is what makes helping survive a shrink-regrow.
func TestMutationUnpinnedEpochWalkerIsConvicted(t *testing.T) {
	d := &sched.DFSExplorer{MaxPreemptions: 2, MaxSchedules: 20000, Timeout: 30 * time.Second}

	intact := d.Explore(unpinnedEpochScenario(false))
	if intact.Failure != nil {
		t.Fatalf("intact protocol failed schedule %d: %v\n%s",
			intact.Failure.Schedule, intact.Failure.Err, intact.Failure.Trace)
	}
	if !intact.Exhausted {
		t.Fatalf("intact search did not exhaust: %+v", intact)
	}

	mutated := d.Explore(unpinnedEpochScenario(true))
	if mutated.Failure == nil {
		t.Fatalf("the searcher cannot fail: unpinned-epoch walker survived %d schedules at preemption bound %d",
			mutated.Schedules, d.MaxPreemptions)
	}
	f := mutated.Failure
	if len(f.Trace) > len(f.RawTrace) {
		t.Fatalf("shrunk trace grew: %d > %d steps", len(f.Trace), len(f.RawTrace))
	}
	if _, err := d.Replay(unpinnedEpochScenario(true), f.Trace); err == nil {
		t.Fatalf("shrunk failing trace replayed clean:\n%s", f.Trace)
	}
	// The intact object sails through the mutant-killing schedule.
	// Tolerant replay: the intact walker takes extra yield points (it
	// helps instead of walking past), so strict positions cannot apply.
	c := sched.NewController()
	intactOracle := unpinnedEpochScenario(false)(c)
	got, err := sched.ReplayTrace(c, f.Trace, false)
	if err != nil {
		t.Fatalf("tolerant replay on the intact object broke down: %v", err)
	}
	if err := intactOracle(got); err != nil {
		t.Fatalf("intact object failed the mutant-killing schedule: %v\n%s", err, got)
	}
	t.Logf("mutant caught at schedule %d/%d: %v\nshrunk trace (%d steps):\n%s",
		f.Schedule, mutated.Schedules, f.Err, len(f.Trace), f.Trace)
}

// skipEpochRecheckScenario stages the smallest state in which returning a
// pinned scan's completed view without the post-completion universe re-read
// forges the mixed-epoch view ROADMAP item #2 predicted. Scripted setup:
// component 1 of a 2-component LockFree object is seeded with 20. The
// search then owns three actors:
//
//   - "scanner": PartialScanInfo({1, 0}) — pins an epoch and double
//     collects; parked in the collect gap it holds the seeded 20.
//   - "churner": Shrink(1) then Grow(1) — component 1's register retires
//     and comes back fresh and zero-valued, closing 20's window for good.
//   - "writer": Update({0}, 11), storing through the survivor's aliased
//     register — visible to the parked scan's second collect.
//
// The convicting interleaving preempts the scanner in its collect gap, runs
// the churn to completion and then the writer: the scanner's retried
// announced collect stabilises {1: 20, 0: 11} — nobody writes either pinned
// cell again — and the mutant returns it. spec.Check rejects the history:
// the Grow's pseudo-write of zero closes 20's window before 11's opens, so
// no instant admits both. The intact object discards exactly that view at
// the exit recheck (component 1 no longer aliases the pinned register) and
// retakes under the churned epoch, returning a single-instant view.
func skipEpochRecheckScenario(mutate bool) sched.Scenario {
	return func(c *sched.Controller) sched.Oracle {
		o := NewLockFree[int64](2).Instrument(c)
		o.mut.skipEpochRecheck = mutate
		rec := &spec.Recorder[int64]{}
		var mu sync.Mutex
		var opErrs []error
		fail := func(err error) {
			mu.Lock()
			opErrs = append(opErrs, err)
			mu.Unlock()
		}
		setupErr := func(format string, args ...any) sched.Oracle {
			err := fmt.Errorf(format, args...)
			return func(sched.Trace) error { return err }
		}

		// Scripted seed, uncontrolled on the setup goroutine: component 1
		// holds 20 before the explored actors start.
		start := rec.Now()
		seedOp, err := o.UpdateOp([]int{1}, []int64{20})
		if err != nil {
			return setupErr("seed update: %v", err)
		}
		rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
			Comps: []int{1}, Vals: []int64{20}, UpdateID: seedOp})

		c.Spawn("scanner", func() {
			start := rec.Now()
			vals, si, err := o.PartialScanInfo([]int{1, 0})
			if err != nil {
				if errors.Is(err, ErrBadComponent) {
					// Pinned (or retook under) the shrunk single-component
					// epoch: the rejection linearizes there — a legal
					// outcome, not a history event.
					return
				}
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
				Comps: []int{1, 0}, Vals: vals, AdoptedFrom: si.HelperOp})
		})
		c.Spawn("churner", func() {
			start := rec.Now()
			size, err := o.Shrink(1)
			if err != nil {
				fail(fmt.Errorf("churner Shrink: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Shrink, Start: start, End: rec.Now(), Delta: 1, Size: size})
			start = rec.Now()
			size, err = o.Grow(1)
			if err != nil {
				fail(fmt.Errorf("churner Grow: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Grow, Start: start, End: rec.Now(), Delta: 1, Size: size})
		})
		c.Spawn("writer", func() {
			start := rec.Now()
			id, err := o.UpdateOp([]int{0}, []int64{11})
			if err != nil {
				fail(fmt.Errorf("writer: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
				Comps: []int{0}, Vals: []int64{11}, UpdateID: id})
		})

		return func(tr sched.Trace) error {
			mu.Lock()
			defer mu.Unlock()
			if len(opErrs) > 0 {
				return opErrs[0]
			}
			ops := rec.Ops()
			if err := spec.Check(2, ops); err != nil {
				return fmt.Errorf("schedule rejected by spec: %w", err)
			}
			if err := spec.CheckProvenance(ops); err != nil {
				return fmt.Errorf("schedule rejected by provenance check: %w", err)
			}
			if st := o.Stats(); st.LiveAnnouncements != 0 {
				return fmt.Errorf("schedule leaked %d live announcements", st.LiveAnnouncements)
			}
			return nil
		}
	}
}

// TestMutationSkipEpochRecheckIsConvicted disables the pinned scan's exit
// recheck via its seam and requires the systematic search to find the
// mixed-epoch view within two preemptions — then shrink it and replay it.
// The control arm runs the identical search, churn included, against the
// intact object and must exhaust with every schedule passing: the
// discard/retake at the recheck, not luck, is what keeps pinned views
// single-instant across installs.
func TestMutationSkipEpochRecheckIsConvicted(t *testing.T) {
	d := &sched.DFSExplorer{MaxPreemptions: 2, MaxSchedules: 20000, Timeout: 30 * time.Second}

	intact := d.Explore(skipEpochRecheckScenario(false))
	if intact.Failure != nil {
		t.Fatalf("intact protocol failed schedule %d: %v\n%s",
			intact.Failure.Schedule, intact.Failure.Err, intact.Failure.Trace)
	}
	if !intact.Exhausted {
		t.Fatalf("intact search did not exhaust: %+v", intact)
	}

	mutated := d.Explore(skipEpochRecheckScenario(true))
	if mutated.Failure == nil {
		t.Fatalf("the searcher cannot fail: unrechecked pinned scan survived %d schedules at preemption bound %d",
			mutated.Schedules, d.MaxPreemptions)
	}
	f := mutated.Failure
	if len(f.Trace) > len(f.RawTrace) {
		t.Fatalf("shrunk trace grew: %d > %d steps", len(f.Trace), len(f.RawTrace))
	}
	if _, err := d.Replay(skipEpochRecheckScenario(true), f.Trace); err == nil {
		t.Fatalf("shrunk failing trace replayed clean:\n%s", f.Trace)
	}
	// The intact object sails through the mutant-killing schedule.
	// Tolerant replay: the intact scanner takes extra yield points (it
	// discards and retakes where the mutant returned early), so strict
	// positions cannot apply.
	c := sched.NewController()
	intactOracle := skipEpochRecheckScenario(false)(c)
	got, err := sched.ReplayTrace(c, f.Trace, false)
	if err != nil {
		t.Fatalf("tolerant replay on the intact object broke down: %v", err)
	}
	if err := intactOracle(got); err != nil {
		t.Fatalf("intact object failed the mutant-killing schedule: %v\n%s", err, got)
	}
	t.Logf("mutant caught at schedule %d/%d: %v\nshrunk trace (%d steps):\n%s",
		f.Schedule, mutated.Schedules, f.Err, len(f.Trace), f.Trace)
}

// reuseCellsScenario stages the smallest state in which handing a value
// slot out twice breaks the double collect. Slot identity is the
// per-register tag the collect compares, so a slot must never be written
// again while a collect may still hold it. Deterministic setup (scripted,
// not explored): a seed update writes {0: 1, 1: 2}, which with the mutant
// fills both slots of a two-slot ring.
//
// The search then owns the schedule of two actors:
//
//   - "scanner" scans {0};
//   - "writer" writes 7 to component 1.
//
// The mutant's writer takes the ring's first slot again and writes 7 into
// the very slot component 0's register still points at, so a scan whose collects land on
// either side of that write sees component 0 unchanged and returns 7 for
// it — a value never written to component 0, which spec.Check rejects. On
// the intact object the writer's slot is never-used memory, so no schedule
// can show the scanner anything but 1.
func reuseCellsScenario(mutate bool) sched.Scenario {
	return func(c *sched.Controller) sched.Oracle {
		o := NewLockFree[int64](2).Instrument(c)
		if mutate {
			o.mut.reuseCells = make([]int64, 2)
		}
		rec := &spec.Recorder[int64]{}
		var mu sync.Mutex
		var opErrs []error
		fail := func(err error) {
			mu.Lock()
			opErrs = append(opErrs, err)
			mu.Unlock()
		}

		start := rec.Now()
		seedOp, err := o.UpdateOp([]int{0, 1}, []int64{1, 2})
		if err != nil {
			return func(sched.Trace) error { return fmt.Errorf("seed update: %w", err) }
		}
		rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
			Comps: []int{0, 1}, Vals: []int64{1, 2}, UpdateID: seedOp})

		c.Spawn("scanner", func() {
			start := rec.Now()
			vals, si, err := o.PartialScanInfo([]int{0})
			if err != nil {
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
				Comps: []int{0}, Vals: vals, AdoptedFrom: si.HelperOp})
		})
		c.Spawn("writer", func() {
			start := rec.Now()
			id, err := o.UpdateOp([]int{1}, []int64{7})
			if err != nil {
				fail(fmt.Errorf("writer: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
				Comps: []int{1}, Vals: []int64{7}, UpdateID: id})
		})

		return func(sched.Trace) error {
			mu.Lock()
			defer mu.Unlock()
			if len(opErrs) > 0 {
				return opErrs[0]
			}
			ops := rec.Ops()
			if err := spec.Check(2, ops); err != nil {
				return fmt.Errorf("schedule rejected by spec: %w", err)
			}
			return spec.CheckProvenance(ops)
		}
	}
}

// TestMutationReusedCellsAreConvicted hands value slots out of a fixed
// ring via the reuseCells seam and requires the systematic search to find
// a scan returning a value its component never held — then shrink it and
// replay it. The control arm runs the identical search against the intact
// object and must exhaust with every schedule passing: never handing a
// slot out twice, not luck, is what keeps slot identity an ABA-free tag.
func TestMutationReusedCellsAreConvicted(t *testing.T) {
	d := &sched.DFSExplorer{MaxPreemptions: 2, MaxSchedules: 20000, Timeout: 30 * time.Second}

	intact := d.Explore(reuseCellsScenario(false))
	if intact.Failure != nil {
		t.Fatalf("intact protocol failed schedule %d: %v\n%s",
			intact.Failure.Schedule, intact.Failure.Err, intact.Failure.Trace)
	}
	if !intact.Exhausted {
		t.Fatalf("intact search did not exhaust: %+v", intact)
	}

	mutated := d.Explore(reuseCellsScenario(true))
	if mutated.Failure == nil {
		t.Fatalf("the searcher cannot fail: reused slots survived %d schedules at preemption bound %d",
			mutated.Schedules, d.MaxPreemptions)
	}
	f := mutated.Failure
	if len(f.Trace) > len(f.RawTrace) {
		t.Fatalf("shrunk trace grew: %d > %d steps", len(f.Trace), len(f.RawTrace))
	}
	if _, err := d.Replay(reuseCellsScenario(true), f.Trace); err == nil {
		t.Fatalf("shrunk failing trace replayed clean:\n%s", f.Trace)
	}
	// The intact object sails through the mutant-killing schedule. Both
	// variants take the same yield points, so the replay is strict.
	c := sched.NewController()
	intactOracle := reuseCellsScenario(false)(c)
	got, err := sched.ReplayTrace(c, f.Trace, true)
	if err != nil {
		t.Fatalf("strict replay on the intact object broke down: %v", err)
	}
	if err := intactOracle(got); err != nil {
		t.Fatalf("intact object failed the mutant-killing schedule: %v\n%s", err, got)
	}
	t.Logf("mutant caught at schedule %d/%d (of %d intact): %v\nshrunk trace (%d steps):\n%s",
		f.Schedule, mutated.Schedules, intact.Schedules, f.Err, len(f.Trace), f.Trace)
}
