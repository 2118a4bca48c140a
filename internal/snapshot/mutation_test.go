package snapshot

import (
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
				if err := o.Update([]int{0}, []int64{val}); err != nil {
					fail(fmt.Errorf("%s: %w", name, err))
					return
				}
				rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
					Comps: []int{0}, Vals: []int64{val}})
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
				Comps: []int{0, 1}, Vals: vals})
		})
		if _, ok := c.StepUntil("scanner", sched.PostFirstCollect); !ok {
			return setupErr("scanner finished before its fast collect gap")
		}
		// The fast-path obstruction runs uncontrolled on the setup
		// goroutine: it walks the (still announcement-free) slot and stores.
		start := rec.Now()
		if err := o.Update([]int{0}, []int64{1}); err != nil {
			return setupErr("setup update: %v", err)
		}
		rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
			Comps: []int{0}, Vals: []int64{1}})
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
			if err := spec.Check(2, rec.Ops()); err != nil {
				return fmt.Errorf("schedule rejected by spec: %w", err)
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
// violation within two preemptions — then replay it. The control arm runs
// the identical search against the intact object and must exhaust with
// every schedule passing.
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
	// The trace replays to a failure without any searching.
	if _, err := d.Replay(mutationScenario(1), f.Trace); err == nil {
		t.Fatalf("failing trace replayed clean:\n%s", f.Trace)
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
	t.Logf("mutant caught at schedule %d/%d: %v\ntrace (%d steps):\n%s",
		f.Schedule, mutated.Schedules, f.Err, len(f.Trace), f.Trace)
}

// staleHeadEmptyScenario stages the smallest state in which treating a
// slot whose head enrollment is stale as empty loses a help obligation.
// Deterministic setup (scripted, not explored):
//
//   - "scanner" was obstructed out of its fast path on {1,2}, announced —
//     its enrollment is the only one in slots 1 and 2 — and parked inside
//     its announced collect gap.
//   - "sweeper" then scanned [2,0]: obstructed out of its fast path by a
//     write of component 0 (whose slot was empty, so the write owed nobody
//     help), it announced — its enrollment now heads slot 2, on top of the
//     scanner's — completed a clean announced collect, and retired. It is
//     parked at its first sweep unlink: done, but still slot 2's head.
//   - "walker" is an update of component 2 spawned after all of that: the
//     protocol obliges it to find the scanner's record and post help
//     before storing.
//
// The search owns the schedule from there. The intact walker loads slot
// 2's head, finds it non-nil and walks: it unlinks the sweeper's stale
// enrollment, reaches the scanner's live one and posts help before
// storing. The mutant (staleHeadEmpty) reads the stale head as an empty
// slot whenever the sweep has not popped it yet — and stores through
// component 2 anyway, obstructing the very scanner whose enrollment sat
// one link behind the head. The trip wire is a lost help: the scanner's
// final view shows the walker's store (so the walker consulted slot 2
// while the record was demonstrably fully announced and live), yet no help
// was ever posted and the scan never adopted. On the intact object that outcome is unreachable.
func staleHeadEmptyScenario(mutate bool) sched.Scenario {
	return func(c *sched.Controller) sched.Oracle {
		o := NewLockFree[int64](3).Instrument(c)
		o.mut.staleHeadEmpty = mutate
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
		update := func(ids []int, vals []int64) error {
			start := rec.Now()
			if err := o.Update(ids, vals); err != nil {
				return err
			}
			rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
				Comps: ids, Vals: vals})
			return nil
		}
		scan := func(name string, ids []int, out *[]int64, info *ScanInfo) {
			c.Spawn(name, func() {
				start := rec.Now()
				vals, si, err := o.PartialScanInfo(ids)
				if err != nil {
					fail(fmt.Errorf("%s: %w", name, err))
					return
				}
				*out, *info = vals, si
				rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
					Comps: ids, Vals: vals})
			})
		}

		// Seed and drive the scanner into its announced collect gap.
		if err := update([]int{1, 2}, []int64{20, 30}); err != nil {
			return setupErr("seed update: %v", err)
		}
		var info, sweepInfo ScanInfo
		var scanVals, sweepVals []int64
		scan("scanner", []int{1, 2}, &scanVals, &info)
		if _, ok := c.StepUntil("scanner", sched.PostFirstCollect); !ok {
			return setupErr("scanner finished before its fast collect gap")
		}
		if err := update([]int{2}, []int64{31}); err != nil {
			return setupErr("obstructing update: %v", err)
		}
		if _, ok := c.StepUntil("scanner", sched.PostAnnounce); !ok {
			return setupErr("scanner finished without announcing")
		}
		if _, ok := c.StepUntil("scanner", sched.PostFirstCollect); !ok {
			return setupErr("scanner finished before its announced collect gap")
		}

		// The sweeper: announced on top of the scanner in slot 2, retired,
		// parked before popping its stale enrollment off slot 2's head.
		scan("sweeper", []int{2, 0}, &sweepVals, &sweepInfo)
		if _, ok := c.StepUntil("sweeper", sched.PostFirstCollect); !ok {
			return setupErr("sweeper finished before its fast collect gap")
		}
		if err := update([]int{0}, []int64{10}); err != nil {
			return setupErr("sweeper's obstructing update: %v", err)
		}
		if arg, ok := c.StepUntil("sweeper", sched.PreUnlink); !ok || arg != 2 {
			return setupErr("sweeper park = arg %d (ok=%v), want pre-unlink(2)", arg, ok)
		}

		// The walker: spawned after both announcements, so its consultation
		// of slot 2 is oblige-to-help by construction. The search explores
		// from here.
		c.Spawn("walker", func() {
			if err := update([]int{2}, []int64{333}); err != nil {
				fail(fmt.Errorf("walker: %w", err))
			}
		})

		return func(tr sched.Trace) error {
			mu.Lock()
			defer mu.Unlock()
			if len(opErrs) > 0 {
				return opErrs[0]
			}
			if err := spec.Check(3, rec.Ops()); err != nil {
				return fmt.Errorf("schedule rejected by spec: %w", err)
			}
			if scanVals == nil {
				return nil // schedule ended before the scan completed
			}
			if scanVals[1] == 333 && !info.Adopted && o.Stats().HelpsPosted == 0 {
				return fmt.Errorf(
					"lost help obligation: the walker's store obstructed the scanner (final view %v) after a consultation of slot 2 that ran while the record was fully announced and live, yet no help was posted — the stale head hid the live enrollment behind it",
					scanVals)
			}
			return nil
		}
	}
}

// TestMutationStaleHeadEmptyIsConvicted injects the stale-head skip via its
// seam and requires the systematic search to find the lost-help-obligation
// schedule within two preemptions — then replay it. The control arm runs
// the identical search against the intact object and must exhaust with
// every schedule passing: only a nil head proves a slot empty; a stale
// head still has to be walked.
func TestMutationStaleHeadEmptyIsConvicted(t *testing.T) {
	d := &sched.DFSExplorer{MaxPreemptions: 2, MaxSchedules: 20000, Timeout: 30 * time.Second}

	intact := d.Explore(staleHeadEmptyScenario(false))
	if intact.Failure != nil {
		t.Fatalf("intact protocol failed schedule %d: %v\n%s",
			intact.Failure.Schedule, intact.Failure.Err, intact.Failure.Trace)
	}
	if !intact.Exhausted {
		t.Fatalf("intact search did not exhaust: %+v", intact)
	}

	mutated := d.Explore(staleHeadEmptyScenario(true))
	if mutated.Failure == nil {
		t.Fatalf("the searcher cannot fail: the stale-head skip survived %d schedules at preemption bound %d",
			mutated.Schedules, d.MaxPreemptions)
	}
	f := mutated.Failure
	if _, err := d.Replay(staleHeadEmptyScenario(true), f.Trace); err == nil {
		t.Fatalf("failing trace replayed clean:\n%s", f.Trace)
	}
	// The intact object sails through the mutant-killing schedule. Tolerant
	// replay: the intact walker takes extra yield points (it walks the slot
	// and helps where the mutant skipped), so strict positions cannot apply.
	c := sched.NewController()
	intactOracle := staleHeadEmptyScenario(false)(c)
	got, err := sched.ReplayTrace(c, f.Trace, false)
	if err != nil {
		t.Fatalf("tolerant replay on the intact object broke down: %v", err)
	}
	if err := intactOracle(got); err != nil {
		t.Fatalf("intact object failed the mutant-killing schedule: %v\n%s", err, got)
	}
	t.Logf("mutant caught at schedule %d/%d: %v\ntrace (%d steps):\n%s",
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
		if err := o.Update([]int{0, 1}, []int64{1, 2}); err != nil {
			return func(sched.Trace) error { return fmt.Errorf("seed update: %w", err) }
		}
		rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
			Comps: []int{0, 1}, Vals: []int64{1, 2}})

		c.Spawn("scanner", func() {
			start := rec.Now()
			vals, err := o.PartialScan([]int{0})
			if err != nil {
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
				Comps: []int{0}, Vals: vals})
		})
		c.Spawn("writer", func() {
			start := rec.Now()
			if err := o.Update([]int{1}, []int64{7}); err != nil {
				fail(fmt.Errorf("writer: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
				Comps: []int{1}, Vals: []int64{7}})
		})

		return func(sched.Trace) error {
			mu.Lock()
			defer mu.Unlock()
			if len(opErrs) > 0 {
				return opErrs[0]
			}
			if err := spec.Check(2, rec.Ops()); err != nil {
				return fmt.Errorf("schedule rejected by spec: %w", err)
			}
			return nil
		}
	}
}

// TestMutationReusedCellsAreConvicted hands value slots out of a fixed
// ring via the reuseCells seam and requires the systematic search to find
// a scan returning a value its component never held — then replay it. The
// control arm runs the identical search against the intact object and must
// exhaust with every schedule passing: never handing a slot out twice, not
// luck, is what keeps slot identity an ABA-free tag.
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
	if _, err := d.Replay(reuseCellsScenario(true), f.Trace); err == nil {
		t.Fatalf("failing trace replayed clean:\n%s", f.Trace)
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
	t.Logf("mutant caught at schedule %d/%d (of %d intact): %v\ntrace (%d steps):\n%s",
		f.Schedule, mutated.Schedules, intact.Schedules, f.Err, len(f.Trace), f.Trace)
}
