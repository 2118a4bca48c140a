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

// headTwoWritersOneScanner is twoWritersOneScanner with the slot-head
// consultation's two outcomes made observable: skipped and walked
// accumulate WalksSkipped and RegistryWalks across the explored space, so
// the exhaustion test can prove the search drove schedules through BOTH
// sides of the head test — writers whose head load found the slot empty
// and skipped the walk outright, and writers whose load ran while the
// scanner's enrollment was linked and therefore walked (and helped).
// Without the counters, an exhausted space in which every writer happened
// to skip would vacuously "verify" the walk path.
func headTwoWritersOneScanner(skipped, walked *atomic.Uint64) sched.Scenario {
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

// TestDFSExhaustsHeadConsultationWritersScanner enumerates the ENTIRE
// preemption-bounded schedule space of the 2-writer/1-scanner scenario with
// the slot-head consultation's outcome counters attached, and requires
// every schedule — head loads racing the enroller's head CAS, skips on nil
// heads, walks while enrolled, retire-side sweeps racing walkers — to pass
// the sequential-spec and provenance oracles. The aggregate counters must
// show both sides of the head test were reached, so the claim "a nil-head
// skip never loses a help obligation" is exhausted over a space that
// actually contains skips AND walks.
func TestDFSExhaustsHeadConsultationWritersScanner(t *testing.T) {
	bound := 2
	if testing.Short() {
		bound = 1
	}
	bound += deepExtra()
	var skipped, walked atomic.Uint64
	d := &sched.DFSExplorer{MaxPreemptions: bound, Timeout: dfsTimeout()}
	rep := d.Explore(headTwoWritersOneScanner(&skipped, &walked))
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
		t.Fatalf("no explored schedule skipped a walk (%d schedules) — no head load ever read nil", rep.Schedules)
	}
	// Reaching the walk side takes two preemptions: one to land a writer's
	// store inside the scanner's fast collect gap (forcing the
	// announcement), one to land another writer's head load inside the
	// enrolled window. The bound-1 space provably contains only skips.
	if bound >= 2 && walked.Load() == 0 {
		t.Fatalf("no explored schedule walked a slot (%d schedules, %d skips) — no head load ever found an enrollment", rep.Schedules, skipped.Load())
	}
	t.Logf("exhausted preemption-%d head-consultation space: %d schedules, %d steps, %d budget-pruned branches, %d skips, %d walks",
		bound, rep.Schedules, rep.Steps, rep.BudgetSkips, skipped.Load(), walked.Load())
}

// churnScenario is the dynamic-universe acceptance scenario: one grower
// that installs an epoch and then writes the component it created
// (Grow(1) → Update{2}); one writer on the original components {0,1}; one
// scanner over {1,2}, whose scan is valid only in the grown epoch — every
// schedule in which it pins the 2-component universe must reject with
// ErrBadComponent, and every schedule in which it pins the grown one must
// return a view the dynamic spec accepts. This is the smallest shape in
// which epoch pinning, the install CAS, cross-epoch helping and the
// rejection of a not-yet-grown component all interleave. freshSurvivors
// turns on the mutation seam that makes the Grow copy components 0 and 1
// into new registers and slots instead of aliasing them.
func churnScenario(freshSurvivors bool) sched.Scenario {
	return func(c *sched.Controller) sched.Oracle {
		o := snapshot.NewLockFree[int64](2).Instrument(c)
		if freshSurvivors {
			snapshot.WithFreshSurvivors(o)
		}
		rec := &spec.Recorder[int64]{}
		var mu sync.Mutex
		var opErrs []error
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
			// The grow has returned, so the grown component indisputably
			// exists: this update must succeed.
			start = rec.Now()
			id, err := o.UpdateOp([]int{2}, []int64{workload.Value(2, 2)})
			if err != nil {
				fail(fmt.Errorf("grower Update{2}: %w", err))
				return
			}
			rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
				Comps: []int{2}, Vals: []int64{workload.Value(2, 2)}, UpdateID: id})
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
					// Pinned the universe without component 2: the
					// rejection linearizes at the pin, before the Grow — a
					// legal outcome, not a history event.
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
			if st := o.Stats(); st.Grows != 1 {
				return fmt.Errorf("epoch accounting corrupted: %+v", st)
			}
			return nil
		}
	}
}

// churnBound is the preemption bound of the churn searches: 2 at the PR
// gate, 1 under -short, plus the SCHED_DEEP extra.
func churnBound() int {
	bound := 2
	if testing.Short() {
		bound = 1
	}
	return bound + deepExtra()
}

// TestDFSExhaustsChurnScenario enumerates the ENTIRE preemption-bounded
// schedule space of the 1-grower/1-writer/1-scanner churn scenario and
// requires every schedule — scans pinned before, during and after the
// Grow, helps crossing epochs, rejections of the not-yet-grown component —
// to pass the dynamic sequential spec and the provenance oracle. Within
// the bound there is no interleaving of a Grow with the snapshot protocol
// the oracle has not accepted.
func TestDFSExhaustsChurnScenario(t *testing.T) {
	bound := churnBound()
	d := &sched.DFSExplorer{MaxPreemptions: bound, Timeout: dfsTimeout()}
	rep := d.Explore(churnScenario(false))
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

// TestMutationFreshSurvivorsIsConvicted turns on the freshSurvivors seam,
// so Grow gives the existing components new registers and slots holding
// their current values instead of aliasing them, and requires the churn
// search to find a violating schedule — then shrink it and replay it. The
// control arm is the intact churn search, which must exhaust with every
// schedule passing. Aliasing is the one argument behind a scan that needs
// no check against a resize: with it, an update pinned to the old epoch
// stores into the register every later epoch reads, and a walker of any
// epoch finds every enrollment.
func TestMutationFreshSurvivorsIsConvicted(t *testing.T) {
	d := &sched.DFSExplorer{MaxPreemptions: churnBound(), Timeout: dfsTimeout()}

	intact := d.Explore(churnScenario(false))
	if intact.Failure != nil {
		t.Fatalf("intact protocol failed schedule %d: %v\n%s",
			intact.Failure.Schedule, intact.Failure.Err, intact.Failure.Trace)
	}
	if !intact.Exhausted {
		t.Fatalf("intact search did not exhaust: %+v", intact)
	}

	mutated := d.Explore(churnScenario(true))
	if mutated.Failure == nil {
		t.Fatalf("the searcher cannot fail: fresh survivors survived %d schedules at preemption bound %d",
			mutated.Schedules, d.MaxPreemptions)
	}
	f := mutated.Failure
	if len(f.Trace) > len(f.RawTrace) {
		t.Fatalf("shrunk trace grew: %d > %d steps", len(f.Trace), len(f.RawTrace))
	}
	if _, err := d.Replay(churnScenario(true), f.Trace); err == nil {
		t.Fatalf("shrunk failing trace replayed clean:\n%s", f.Trace)
	}
	// The intact object sails through the mutant-killing schedule. Tolerant
	// replay: aliased slots can make the intact object walk and help where
	// the mutant found an empty slot, so strict positions cannot apply.
	c := sched.NewController()
	intactOracle := churnScenario(false)(c)
	got, err := sched.ReplayTrace(c, f.Trace, false)
	if err != nil {
		t.Fatalf("tolerant replay on the intact object broke down: %v", err)
	}
	if err := intactOracle(got); err != nil {
		t.Fatalf("intact object failed the mutant-killing schedule: %v\n%s", err, got)
	}
	t.Logf("mutant caught at schedule %d/%d (of %d intact): %v\nshrunk trace (%d steps):\n%s",
		f.Schedule, mutated.Schedules, intact.Schedules, f.Err, len(f.Trace), f.Trace)
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
