package snapshot_test

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partialsnapshot/internal/sched"
	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/spec"
	"partialsnapshot/internal/workload"
)

// deepExtra is the extra preemption budget requested via SCHED_DEEP (the
// nightly deep-exploration workflow sets it to 1): every DFS test then
// exhausts a strictly larger schedule space than any PR-gate run, with a
// watchdog sized for the bigger search.
func deepExtra() int {
	if os.Getenv("SCHED_DEEP") != "" {
		return 1
	}
	return 0
}

func dfsTimeout() time.Duration {
	if os.Getenv("SCHED_DEEP") != "" {
		return 15 * time.Minute
	}
	return 30 * time.Second
}

// specOracle is the standard model-checking oracle: operation errors,
// spec.Check, spec.CheckProvenance and announcement hygiene, evaluated
// after every explored schedule. It accepts any implementation with a
// Stats surface.
func specOracle(components int, o snapshot.StatsReader, rec *spec.Recorder[int64],
	mu *sync.Mutex, opErrs *[]error) sched.Oracle {
	return func(tr sched.Trace) error {
		mu.Lock()
		defer mu.Unlock()
		if len(*opErrs) > 0 {
			return (*opErrs)[0]
		}
		ops := rec.Ops()
		if err := spec.Check(components, ops); err != nil {
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

// twoWritersOneScanner is the acceptance scenario for systematic search: a
// single-component writer, a two-component batch writer and one partial
// scanner over both components — the smallest shape in which every helping
// path (fast collect, announce, help, adopt, half-applied batch) is
// reachable within two preemptions.
func twoWritersOneScanner(c *sched.Controller) sched.Oracle {
	o := snapshot.NewLockFree[int64](2).Instrument(c)
	rec := &spec.Recorder[int64]{}
	var mu sync.Mutex
	var opErrs []error
	fail := func(err error) {
		mu.Lock()
		opErrs = append(opErrs, err)
		mu.Unlock()
	}
	update := func(name string, ids []int, vals []int64) {
		c.Spawn(name, func() {
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
	update("w1", []int{0}, []int64{workload.Value(0, 0)})
	update("w2", []int{0, 1}, []int64{workload.Value(1, 0), workload.Value(1, 1)})
	c.Spawn("scanner", func() {
		start := rec.Now()
		vals, info, err := o.PartialScanInfo([]int{0, 1})
		if err != nil {
			fail(fmt.Errorf("scanner: %w", err))
			return
		}
		rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
			Comps: []int{0, 1}, Vals: vals, AdoptedFrom: info.HelperOp})
	})
	return specOracle(2, o, rec, &mu, &opErrs)
}

// TestDFSExhaustsTwoWritersOneScanner is the systematic counterpart of the
// seeded matrix: it enumerates the ENTIRE preemption-2 schedule space of
// the 2-writer/1-scanner scenario and requires every single schedule to
// pass the sequential-spec and provenance oracles. Where the seeded
// Explorer samples, this exhausts: within the bound there is no
// interleaving of this scenario the oracle has not accepted.
func TestDFSExhaustsTwoWritersOneScanner(t *testing.T) {
	bound := 2
	if testing.Short() {
		bound = 1
	}
	bound += deepExtra()
	d := &sched.DFSExplorer{MaxPreemptions: bound, Timeout: dfsTimeout()}
	rep := d.Explore(twoWritersOneScanner)
	if rep.Failure != nil {
		f := rep.Failure
		t.Fatalf("schedule %d failed: %v\nshrunk trace (%d steps):\n%s",
			f.Schedule, f.Err, len(f.Trace), f.Trace)
	}
	if !rep.Exhausted {
		t.Fatalf("search did not exhaust the preemption-%d space: %+v", bound, rep)
	}
	floor := 50 // the bound-2 space measures 404 schedules; bound-1 is 60
	if bound == 1 {
		floor = 20
	}
	if rep.Schedules < floor {
		t.Fatalf("suspiciously small schedule space (%d schedules at bound %d) — did the scenario degenerate?", rep.Schedules, bound)
	}
	if rep.BudgetSkips == 0 {
		t.Fatalf("the preemption bound never pruned anything, scenario too small: %+v", rep)
	}
	t.Logf("exhausted preemption-%d space: %d schedules, %d steps, %d budget-pruned branches",
		bound, rep.Schedules, rep.Steps, rep.BudgetSkips)
}

// summaryTwoWritersOneScanner is twoWritersOneScanner with the quiescence
// summary's two outcomes made observable: skipped and walked accumulate
// WalksSkipped and RegistryWalks across the explored space, so the
// exhaustion test can prove the search drove schedules through BOTH sides
// of the summary branch — writers whose summary read found the group
// quiescent and skipped the slot walk outright, and writers whose read ran
// while the scanner's announcement was live and therefore walked (and
// helped). Without the counters, an exhausted space in which every writer
// happened to skip would vacuously "verify" the walk path.
func summaryTwoWritersOneScanner(skipped, walked *atomic.Uint64) sched.Scenario {
	return func(c *sched.Controller) sched.Oracle {
		o := snapshot.NewLockFree[int64](2).Instrument(c)
		rec := &spec.Recorder[int64]{}
		var mu sync.Mutex
		var opErrs []error
		fail := func(err error) {
			mu.Lock()
			opErrs = append(opErrs, err)
			mu.Unlock()
		}
		update := func(name string, ids []int, vals []int64) {
			c.Spawn(name, func() {
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
		update("w1", []int{0}, []int64{workload.Value(0, 0)})
		update("w2", []int{0, 1}, []int64{workload.Value(1, 0), workload.Value(1, 1)})
		c.Spawn("scanner", func() {
			start := rec.Now()
			vals, info, err := o.PartialScanInfo([]int{0, 1})
			if err != nil {
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
				Comps: []int{0, 1}, Vals: vals, AdoptedFrom: info.HelperOp})
		})
		base := specOracle(2, o, rec, &mu, &opErrs)
		return func(tr sched.Trace) error {
			if err := base(tr); err != nil {
				return err
			}
			st := o.Stats()
			skipped.Add(st.WalksSkipped)
			walked.Add(st.RegistryWalks)
			return nil
		}
	}
}

// TestDFSExhaustsSummaryGuardedWritersScanner enumerates the ENTIRE
// preemption-bounded schedule space of the 2-writer/1-scanner scenario with
// the quiescence summary's outcome counters attached, and requires every
// schedule — summary reads racing the enroller's count-raise, skips while
// quiescent, walks while announced, retire-side sweeps racing walkers — to
// pass the sequential-spec and provenance oracles. The aggregate counters
// must show both sides of the summary branch were reached, so the claim
// "the skip never loses a help obligation" is exhausted over a space that
// actually contains skips AND walks.
func TestDFSExhaustsSummaryGuardedWritersScanner(t *testing.T) {
	bound := 2
	if testing.Short() {
		bound = 1
	}
	bound += deepExtra()
	var skipped, walked atomic.Uint64
	d := &sched.DFSExplorer{MaxPreemptions: bound, Timeout: dfsTimeout()}
	rep := d.Explore(summaryTwoWritersOneScanner(&skipped, &walked))
	if rep.Failure != nil {
		f := rep.Failure
		t.Fatalf("schedule %d failed: %v\nshrunk trace (%d steps):\n%s",
			f.Schedule, f.Err, len(f.Trace), f.Trace)
	}
	if !rep.Exhausted {
		t.Fatalf("search did not exhaust the preemption-%d space: %+v", bound, rep)
	}
	floor := 50
	if bound == 1 {
		floor = 20
	}
	if rep.Schedules < floor {
		t.Fatalf("suspiciously small schedule space (%d schedules at bound %d) — did the scenario degenerate?", rep.Schedules, bound)
	}
	if skipped.Load() == 0 {
		t.Fatalf("no explored schedule skipped a walk (%d schedules) — the summary never read quiescent", rep.Schedules)
	}
	// Reaching the walk side takes two preemptions: one to land a writer's
	// store inside the scanner's fast collect gap (forcing the
	// announcement), one to land another writer's summary read inside the
	// announced window. The bound-1 space provably contains only skips.
	if bound >= 2 && walked.Load() == 0 {
		t.Fatalf("no explored schedule walked a slot (%d schedules, %d skips) — the summary never read a live announcement", rep.Schedules, skipped.Load())
	}
	t.Logf("exhausted preemption-%d summary space: %d schedules, %d steps, %d budget-pruned branches, %d skips, %d walks",
		bound, rep.Schedules, rep.Steps, rep.BudgetSkips, skipped.Load(), walked.Load())
}

// churnScenario is the dynamic-universe acceptance scenario: one grower
// that installs an epoch, writes the component it created, and removes it
// again (Grow(1) → Update{2} → Shrink(1)); one writer on the permanent
// components {0,1}; one scanner over {1,2}, whose scan is valid only in
// the grown epoch — every schedule in which it pins a 2-component universe
// must reject with ErrBadComponent, and every schedule in which it pins
// the grown one must return a view the dynamic spec accepts. This is the
// smallest shape in which epoch pinning, the install CAS, cross-epoch
// helping and shrunk-component rejection all interleave.
func churnScenario(c *sched.Controller) sched.Oracle {
	o := snapshot.NewLockFree[int64](2).Instrument(c)
	rec := &spec.Recorder[int64]{}
	var mu sync.Mutex
	var opErrs []error
	var rejected atomic.Uint64
	fail := func(err error) {
		mu.Lock()
		opErrs = append(opErrs, err)
		mu.Unlock()
	}
	c.Spawn("grower", func() {
		start := rec.Now()
		size, err := o.Grow(1)
		if err != nil {
			fail(fmt.Errorf("grower Grow: %w", err))
			return
		}
		rec.Add(spec.Op[int64]{Kind: spec.Grow, Start: start, End: rec.Now(), Delta: 1, Size: size})
		// The grower is the only resizer, so between its own resizes the
		// grown component indisputably exists: this update must succeed.
		start = rec.Now()
		id, err := o.UpdateOp([]int{2}, []int64{workload.Value(2, 2)})
		if err != nil {
			fail(fmt.Errorf("grower Update{2}: %w", err))
			return
		}
		rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
			Comps: []int{2}, Vals: []int64{workload.Value(2, 2)}, UpdateID: id})
		start = rec.Now()
		size, err = o.Shrink(1)
		if err != nil {
			fail(fmt.Errorf("grower Shrink: %w", err))
			return
		}
		rec.Add(spec.Op[int64]{Kind: spec.Shrink, Start: start, End: rec.Now(), Delta: 1, Size: size})
	})
	c.Spawn("writer", func() {
		start := rec.Now()
		id, err := o.UpdateOp([]int{0, 1}, []int64{workload.Value(0, 0), workload.Value(0, 1)})
		if err != nil {
			fail(fmt.Errorf("writer: %w", err))
			return
		}
		rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
			Comps: []int{0, 1}, Vals: []int64{workload.Value(0, 0), workload.Value(0, 1)}, UpdateID: id})
	})
	c.Spawn("scanner", func() {
		start := rec.Now()
		vals, info, err := o.PartialScanInfo([]int{1, 2})
		if err != nil {
			if errors.Is(err, snapshot.ErrBadComponent) {
				// Pinned a universe without component 2: the rejection
				// linearizes at the pin, against a 2-component epoch — a
				// legal outcome, not a history event.
				rejected.Add(1)
				return
			}
			fail(fmt.Errorf("scanner: %w", err))
			return
		}
		rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
			Comps: []int{1, 2}, Vals: vals, AdoptedFrom: info.HelperOp})
	})
	base := specOracle(2, o, rec, &mu, &opErrs)
	return func(tr sched.Trace) error {
		if err := base(tr); err != nil {
			return err
		}
		if st := o.Stats(); st.Grows != 1 || st.Shrinks != 1 || st.Epoch != 2 {
			return fmt.Errorf("epoch accounting corrupted: %+v", st)
		}
		return nil
	}
}

// TestDFSExhaustsChurnScenario enumerates the ENTIRE preemption-bounded
// schedule space of the 1-grower/1-writer/1-scanner churn scenario and
// requires every schedule — scans pinned before, during and after the
// grow/shrink pair, helps crossing epochs, rejections landing on the
// shrunk component — to pass the dynamic sequential spec and the
// provenance oracle. Within the bound there is no interleaving of resizes
// with the snapshot protocol the oracle has not accepted.
func TestDFSExhaustsChurnScenario(t *testing.T) {
	bound := 2
	if testing.Short() {
		bound = 1
	}
	bound += deepExtra()
	d := &sched.DFSExplorer{MaxPreemptions: bound, Timeout: dfsTimeout()}
	rep := d.Explore(churnScenario)
	if rep.Failure != nil {
		f := rep.Failure
		t.Fatalf("schedule %d failed: %v\nshrunk trace (%d steps):\n%s",
			f.Schedule, f.Err, len(f.Trace), f.Trace)
	}
	if !rep.Exhausted {
		t.Fatalf("search did not exhaust the preemption-%d space: %+v", bound, rep)
	}
	floor := 50
	if bound == 1 {
		floor = 20
	}
	if rep.Schedules < floor {
		t.Fatalf("suspiciously small schedule space (%d schedules at bound %d) — did the scenario degenerate?", rep.Schedules, bound)
	}
	if rep.BudgetSkips == 0 {
		t.Fatalf("the preemption bound never pruned anything, scenario too small: %+v", rep)
	}
	t.Logf("exhausted preemption-%d churn space: %d schedules, %d steps, %d budget-pruned branches",
		bound, rep.Schedules, rep.Steps, rep.BudgetSkips)
}

// reuseTwoWritersOneScanner is twoWritersOneScanner with a primed record
// pool: a scripted prefix drives one scan through its announced slow path
// so its retired record sits in the (deterministic) pool before the
// explored actors start. Every explored schedule in which the scanner —
// or a helping updater's embedded scan — announces then RECYCLES that
// record, threading the generation-tag and pin protocol of pool.go
// through the same preemption-bounded space the base scenario exhausts;
// reused counts the schedules that actually exercised reuse.
func reuseTwoWritersOneScanner(reused *atomic.Uint64) sched.Scenario {
	return func(c *sched.Controller) sched.Oracle {
		o := snapshot.NewLockFree[int64](2).Instrument(c)
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

		// Scripted prefix (deterministic, not explored): obstruct a primer
		// scan out of its fast path so it announces, completes, and retires
		// its record into the pool.
		c.Spawn("primer", func() {
			start := rec.Now()
			vals, info, err := o.PartialScanInfo([]int{0, 1})
			if err != nil {
				fail(fmt.Errorf("primer: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
				Comps: []int{0, 1}, Vals: vals, AdoptedFrom: info.HelperOp})
		})
		if _, ok := c.StepUntil("primer", sched.PostFirstCollect); !ok {
			return setupErr("primer finished before its fast collect gap")
		}
		start := rec.Now()
		setupOp, err := o.UpdateOp([]int{0}, []int64{workload.Value(3, 0)})
		if err != nil {
			return setupErr("setup update: %v", err)
		}
		rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
			Comps: []int{0}, Vals: []int64{workload.Value(3, 0)}, UpdateID: setupOp})
		c.RunToCompletion("primer")
		if o.Stats().RecordReuses != 0 {
			return setupErr("prefix itself reused a record; the pool priming degenerated")
		}

		// The explored actors — identical to twoWritersOneScanner.
		update := func(name string, ids []int, vals []int64) {
			c.Spawn(name, func() {
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
		update("w1", []int{0}, []int64{workload.Value(0, 0)})
		update("w2", []int{0, 1}, []int64{workload.Value(1, 0), workload.Value(1, 1)})
		c.Spawn("scanner", func() {
			start := rec.Now()
			vals, info, err := o.PartialScanInfo([]int{0, 1})
			if err != nil {
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
				Comps: []int{0, 1}, Vals: vals, AdoptedFrom: info.HelperOp})
		})
		base := specOracle(2, o, rec, &mu, &opErrs)
		return func(tr sched.Trace) error {
			if err := base(tr); err != nil {
				return err
			}
			reused.Add(o.Stats().RecordReuses)
			return nil
		}
	}
}

// TestDFSExhaustsPooledReuseScenario exhausts the preemption-bounded
// schedule space of the primed-pool 2-writer/1-scanner scenario: within
// the bound there is no interleaving — including every one that recycles
// the pooled record mid-help — on which the sequential-spec, provenance
// or announcement-hygiene oracle fails. The reuse counter proves the
// search actually drove schedules through the recycling path rather than
// vacuously passing a pool nobody touched.
func TestDFSExhaustsPooledReuseScenario(t *testing.T) {
	bound := 2
	if testing.Short() {
		bound = 1
	}
	bound += deepExtra()
	var reused atomic.Uint64
	d := &sched.DFSExplorer{MaxPreemptions: bound, Timeout: dfsTimeout()}
	rep := d.Explore(reuseTwoWritersOneScanner(&reused))
	if rep.Failure != nil {
		f := rep.Failure
		t.Fatalf("schedule %d failed: %v\nshrunk trace (%d steps):\n%s",
			f.Schedule, f.Err, len(f.Trace), f.Trace)
	}
	if !rep.Exhausted {
		t.Fatalf("search did not exhaust the preemption-%d space: %+v", bound, rep)
	}
	if reused.Load() == 0 {
		t.Fatalf("no explored schedule recycled the pooled record (%d schedules) — the scenario degenerated", rep.Schedules)
	}
	t.Logf("exhausted preemption-%d space: %d schedules, %d steps, %d schedules recycled the pooled record",
		bound, rep.Schedules, rep.Steps, reused.Load())
}

// TestDFSWorkloadScenarioWithSleepSets model-checks a workload-generated
// two-partition scenario under sleep-set pruning: the two workers touch
// disjoint component ranges and share no oracle-visible state except the
// object, so their steps commute and the search proves the locality claim
// over a collapsed schedule space. The per-worker histories are checked
// against per-partition spec instances (a shared recorder would order the
// partitions and break the independence declaration).
func TestDFSWorkloadScenarioWithSleepSets(t *testing.T) {
	gen, err := workload.New(workload.Config{
		Shape: workload.Partitioned, Components: 4, Workers: 2,
		ScanWidth: 2, UpdateWidth: 2, ScanFrac: -1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	scenario := func(c *sched.Controller) sched.Oracle {
		o := snapshot.NewLockFree[int64](4).Instrument(c)
		recs := [2]*spec.Recorder[int64]{{}, {}}
		var mu sync.Mutex
		var opErrs []error
		for w := 0; w < 2; w++ {
			w := w
			ops := gen.Ops(w, 4)
			rec := recs[w]
			c.Spawn(fmt.Sprintf("p%d", w), func() {
				for _, op := range ops {
					switch op.Kind {
					case workload.OpUpdate:
						start := rec.Now()
						id, err := o.UpdateOp(op.Comps, op.Vals)
						if err != nil {
							mu.Lock()
							opErrs = append(opErrs, err)
							mu.Unlock()
							return
						}
						rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
							Comps: op.Comps, Vals: op.Vals, UpdateID: id})
					case workload.OpScan:
						start := rec.Now()
						vals, info, err := o.PartialScanInfo(op.Comps)
						if err != nil {
							mu.Lock()
							opErrs = append(opErrs, err)
							mu.Unlock()
							return
						}
						rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
							Comps: op.Comps, Vals: vals, AdoptedFrom: info.HelperOp})
					}
				}
			})
		}
		return func(tr sched.Trace) error {
			mu.Lock()
			defer mu.Unlock()
			if len(opErrs) > 0 {
				return opErrs[0]
			}
			for w := 0; w < 2; w++ {
				if err := spec.Check(4, recs[w].Ops()); err != nil {
					return fmt.Errorf("partition %d rejected by spec: %w", w, err)
				}
			}
			st := o.Stats()
			if st.RecordsVisited != 0 || st.HelpsPosted != 0 {
				return fmt.Errorf("disjoint partitions interfered: %+v", st)
			}
			if st.LiveAnnouncements != 0 {
				return fmt.Errorf("schedule leaked %d live announcements", st.LiveAnnouncements)
			}
			return nil
		}
	}
	d := &sched.DFSExplorer{
		MaxPreemptions: 1 + deepExtra(),
		Timeout:        dfsTimeout(),
		Independent:    sched.FootprintIndependence(map[string][]int{"p0": {0, 1}, "p1": {2, 3}}),
	}
	rep := d.Explore(scenario)
	if rep.Failure != nil {
		t.Fatalf("schedule %d failed: %v\n%s", rep.Failure.Schedule, rep.Failure.Err, rep.Failure.Trace)
	}
	if !rep.Exhausted || rep.SleepSkips == 0 {
		t.Fatalf("sleep sets never pruned the disjoint-partition space: %+v", rep)
	}
	t.Logf("disjoint-partition space under sleep sets: %+v", rep)
}

// recheckChurnScenario is the dynamic-universe acceptance scenario for the
// pinned scan's exit recheck (the mixed-epoch fix in scanPinned): a seeded
// component 1, a churner whose Shrink(1)+Grow(1) retires and re-creates
// that component's register, a writer moving the survivor through its
// aliased register, and a scanner over {1, 0}. Schedules in which the
// scanner's pinned view straddles the churn must discard at the recheck and
// retake (counted into discarded via the per-schedule ViewsDiscarded
// gauge); schedules in which the view completes against an undisturbed
// universe must return it unrechallenged (counted into clean). The explorer
// must reach both — a search space in which one of the recheck's outcomes
// is unreachable would prove nothing about it.
func recheckChurnScenario(discarded, clean *atomic.Uint64) sched.Scenario {
	return func(c *sched.Controller) sched.Oracle {
		o := snapshot.NewLockFree[int64](2).Instrument(c)
		rec := &spec.Recorder[int64]{}
		var mu sync.Mutex
		var opErrs []error
		var scanDone atomic.Bool
		fail := func(err error) {
			mu.Lock()
			opErrs = append(opErrs, err)
			mu.Unlock()
		}
		setupErr := func(format string, args ...any) sched.Oracle {
			err := fmt.Errorf(format, args...)
			return func(sched.Trace) error { return err }
		}

		// Scripted seed, uncontrolled: component 1 holds a value the churn
		// will kill, so a stale view is observably stale.
		start := rec.Now()
		seedOp, err := o.UpdateOp([]int{1}, []int64{workload.Value(4, 1)})
		if err != nil {
			return setupErr("seed update: %v", err)
		}
		rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
			Comps: []int{1}, Vals: []int64{workload.Value(4, 1)}, UpdateID: seedOp})

		c.Spawn("scanner", func() {
			start := rec.Now()
			vals, info, err := o.PartialScanInfo([]int{1, 0})
			if err != nil {
				if errors.Is(err, snapshot.ErrBadComponent) {
					// Pinned (or retook under) the shrunk single-component
					// epoch: the rejection linearizes there — a legal
					// outcome, not a history event.
					return
				}
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
			scanDone.Store(true)
			rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
				Comps: []int{1, 0}, Vals: vals, AdoptedFrom: info.HelperOp})
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
			id, err := o.UpdateOp([]int{0}, []int64{workload.Value(4, 0)})
			if err != nil {
				fail(fmt.Errorf("writer: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
				Comps: []int{0}, Vals: []int64{workload.Value(4, 0)}, UpdateID: id})
		})

		base := specOracle(2, o, rec, &mu, &opErrs)
		return func(tr sched.Trace) error {
			if err := base(tr); err != nil {
				return err
			}
			if st := o.Stats(); st.ViewsDiscarded > 0 {
				discarded.Add(1)
			} else if scanDone.Load() {
				clean.Add(1)
			}
			return nil
		}
	}
}

// TestDFSExhaustsRecheckChurnScenario enumerates the ENTIRE
// preemption-bounded schedule space of the recheck scenario and requires
// every schedule to pass the dynamic sequential spec — including every
// schedule in which the scanner's completed view straddles the
// Shrink+Grow churn and is discarded and retaken at the exit recheck. Both
// outcomes of the recheck must be reached: schedules that discard (the view
// straddled an install of a named component) and schedules that return
// clean (no install, or the scan pinned after the churn). Within the bound
// there is no interleaving of the discard/retake logic with updates,
// helping and resizes that the oracle has not accepted.
func TestDFSExhaustsRecheckChurnScenario(t *testing.T) {
	bound := 2
	if testing.Short() {
		bound = 1
	}
	bound += deepExtra()
	d := &sched.DFSExplorer{MaxPreemptions: bound, Timeout: dfsTimeout()}
	var discarded, clean atomic.Uint64
	rep := d.Explore(recheckChurnScenario(&discarded, &clean))
	if rep.Failure != nil {
		f := rep.Failure
		t.Fatalf("schedule %d failed: %v\nshrunk trace (%d steps):\n%s",
			f.Schedule, f.Err, len(f.Trace), f.Trace)
	}
	if !rep.Exhausted {
		t.Fatalf("search did not exhaust the preemption-%d space: %+v", bound, rep)
	}
	floor := 50
	if bound == 1 {
		floor = 20
	}
	if rep.Schedules < floor {
		t.Fatalf("suspiciously small schedule space (%d schedules at bound %d) — did the scenario degenerate?", rep.Schedules, bound)
	}
	if rep.BudgetSkips == 0 {
		t.Fatalf("the preemption bound never pruned anything, scenario too small: %+v", rep)
	}
	if discarded.Load() == 0 {
		t.Fatalf("no schedule exercised the discard/retake path: the recheck was never challenged")
	}
	if clean.Load() == 0 {
		t.Fatalf("no schedule exercised the clean path: every view was discarded, the recheck cannot be vacuous")
	}
	t.Logf("exhausted preemption-%d recheck space: %d schedules (%d discarded a view, %d returned clean), %d steps, %d budget-pruned branches",
		bound, rep.Schedules, discarded.Load(), clean.Load(), rep.Steps, rep.BudgetSkips)
}
