package sched

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// racyCounter is the canonical lost-update bug: both workers load the
// counter, yield, then store load+1. Any schedule that preempts a worker
// inside the load/store gap loses an increment; every non-preemptive
// schedule is correct. It needs exactly one preemption to fail, which
// makes it the calibration scenario for the bounded search.
func racyCounter() (Scenario, *atomic.Int64) {
	counter := &atomic.Int64{}
	scenario := func(c *Controller) Oracle {
		counter.Store(0)
		worker := func() {
			v := counter.Load()
			c.Yield(PostFirstCollect, 0)
			counter.Store(v + 1)
		}
		c.Spawn("a", worker)
		c.Spawn("b", worker)
		return func(tr Trace) error {
			if got := counter.Load(); got != 2 {
				return fmt.Errorf("lost update: counter = %d, want 2", got)
			}
			return nil
		}
	}
	return scenario, counter
}

// TestDFSFindsLostUpdate: one preemption of budget is enough to expose the
// lost update, and replaying the failing trace reproduces a failure
// without searching.
func TestDFSFindsLostUpdate(t *testing.T) {
	scenario, _ := racyCounter()
	d := &DFSExplorer{MaxPreemptions: 1, Timeout: 10 * time.Second}
	rep := d.Explore(scenario)
	if rep.Failure == nil {
		t.Fatalf("bounded search missed the lost update: %+v", rep)
	}
	f := rep.Failure
	if !strings.Contains(f.Err.Error(), "lost update") {
		t.Fatalf("failure error = %v, want the oracle's lost-update error", f.Err)
	}
	if _, err := d.Replay(scenario, f.Trace); err == nil {
		t.Fatalf("replaying the failing trace passed:\n%s", f.Trace)
	}
	t.Logf("failure at schedule %d/%d, %d steps:\n%s",
		f.Schedule, rep.Schedules, len(f.Trace), f.Trace)
}

// TestDFSPreemptionBoundIsRespected: with zero preemptions the lost update
// is unreachable — the search explores only completion-order interleavings,
// prunes everything else against the budget, and exhausts cleanly.
func TestDFSPreemptionBoundIsRespected(t *testing.T) {
	scenario, _ := racyCounter()
	d := &DFSExplorer{MaxPreemptions: 0, Timeout: 10 * time.Second}
	rep := d.Explore(scenario)
	if rep.Failure != nil {
		t.Fatalf("zero-preemption search found a failure that needs a preemption: %+v", rep.Failure.Err)
	}
	if !rep.Exhausted {
		t.Fatalf("search did not exhaust: %+v", rep)
	}
	if rep.BudgetSkips == 0 {
		t.Fatalf("search never charged the preemption budget: %+v", rep)
	}
	// Exactly the two completion orders: a-then-b and b-then-a.
	if rep.Schedules != 2 {
		t.Fatalf("zero-preemption schedules = %d, want 2 (the two completion orders)", rep.Schedules)
	}
}

// TestDFSExhaustsAndCountsDeterministically: the bounded space of a fixed
// scenario has a fixed size; two searches agree on every counter.
func TestDFSExhaustsAndCountsDeterministically(t *testing.T) {
	scenario, _ := racyCounter()
	run := func() Report {
		// MaxPreemptions 2 with an always-pass oracle: count the space.
		d := &DFSExplorer{MaxPreemptions: 2, Timeout: 10 * time.Second}
		pass := func(c *Controller) Oracle {
			scenario(c)
			return nil
		}
		return d.Explore(pass)
	}
	a, b := run(), run()
	if !a.Exhausted || a.Failure != nil {
		t.Fatalf("search did not exhaust cleanly: %+v", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same scenario, different reports:\n%+v\n%+v", a, b)
	}
	if a.Schedules < 4 {
		t.Fatalf("suspiciously small bounded space: %+v", a)
	}
	t.Logf("preemption-2 space of the racy counter: %+v", a)
}

// TestDFSMaxSchedulesCap: the cap stops the search early and says so.
func TestDFSMaxSchedulesCap(t *testing.T) {
	scenario, _ := racyCounter()
	// The one explored schedule is the non-preemptive default, which
	// passes; the cap must trip before any alternative runs.
	d := &DFSExplorer{MaxPreemptions: 2, MaxSchedules: 1, Timeout: 10 * time.Second}
	rep := d.Explore(scenario)
	if !rep.Capped || rep.Exhausted || rep.Schedules != 1 {
		t.Fatalf("capped search report = %+v, want Capped with exactly 1 schedule", rep)
	}
}

// TestDFSSleepSetPruning: two workers with disjoint declared footprints
// commute, so sleep sets collapse the interleaving space; the pruned
// search still exhausts, passes, and runs strictly fewer schedules.
func TestDFSSleepSetPruning(t *testing.T) {
	scenario := func(c *Controller) Oracle {
		worker := func(comp int) func() {
			return func() {
				c.Yield(PreCellStore, comp)
				c.Yield(PreCellStore, comp)
			}
		}
		c.Spawn("a", worker(0))
		c.Spawn("b", worker(1))
		return nil
	}
	base := &DFSExplorer{MaxPreemptions: 2, Timeout: 10 * time.Second}
	full := base.Explore(scenario)
	pruned := &DFSExplorer{MaxPreemptions: 2, Timeout: 10 * time.Second,
		Independent: FootprintIndependence(map[string][]int{"a": {0}, "b": {1}})}
	slim := pruned.Explore(scenario)
	if !full.Exhausted || !slim.Exhausted || full.Failure != nil || slim.Failure != nil {
		t.Fatalf("searches did not exhaust cleanly: full %+v, pruned %+v", full, slim)
	}
	if slim.SleepSkips == 0 {
		t.Fatalf("independence relation never pruned: %+v", slim)
	}
	if slim.Schedules >= full.Schedules {
		t.Fatalf("sleep sets did not reduce the space: %d schedules pruned vs %d full", slim.Schedules, full.Schedules)
	}
	t.Logf("sleep sets: %d schedules instead of %d (%d skips)", slim.Schedules, full.Schedules, slim.SleepSkips)
}

// TestDFSCatchesLivelock: a schedule that never quiesces within the step
// cap is reported as a failure with its trace — the searcher's handle on
// wait-freedom violations, where nothing returns a wrong value but
// somebody never finishes.
func TestDFSCatchesLivelock(t *testing.T) {
	scenario := func(c *Controller) Oracle {
		c.Spawn("spinner", func() {
			// Far more yields than the step cap; finite so the detached
			// goroutine drains after the abort.
			for i := 0; i < 1000; i++ {
				c.Yield(PostFirstCollect, 0)
			}
		})
		return nil
	}
	d := &DFSExplorer{MaxPreemptions: 1, MaxScheduleSteps: 50, Timeout: 10 * time.Second}
	rep := d.Explore(scenario)
	if rep.Failure == nil || !strings.Contains(rep.Failure.Err.Error(), "livelock") {
		t.Fatalf("livelocked schedule not reported: %+v", rep)
	}
	if len(rep.Failure.Trace) != 50 {
		t.Fatalf("livelock trace has %d steps, want the 50-step cap", len(rep.Failure.Trace))
	}
}

// TestDFSNondeterministicScenarioReported: a scenario whose behaviour
// depends on anything but the schedule breaks prefix replay; the search
// must say so instead of looping or misattributing the failure.
func TestDFSNondeterministicScenarioReported(t *testing.T) {
	var runs atomic.Int64
	scenario := func(c *Controller) Oracle {
		n := runs.Add(1)
		c.Spawn("a", func() { c.Yield(PostFirstCollect, 0) })
		c.Spawn("b", func() {
			// b parks with a different arg on every run, so any replayed
			// prefix that stepped b past its start disagrees with the
			// recorded runnable set.
			c.Yield(PostFirstCollect, int(n))
		})
		return nil
	}
	d := &DFSExplorer{MaxPreemptions: 2, Timeout: 10 * time.Second}
	rep := d.Explore(scenario)
	if rep.Failure == nil || !strings.Contains(rep.Failure.Err.Error(), "nondeterministic") {
		t.Fatalf("nondeterminism not reported: %+v", rep)
	}
}

// TestReplayTraceStrict: strict replay validates park positions and
// reports divergence; a trace recorded from a run replays against a fresh
// instance of the same scenario without error.
func TestReplayTraceStrict(t *testing.T) {
	scenario, counter := racyCounter()
	d := &DFSExplorer{MaxPreemptions: 1, Timeout: 10 * time.Second}
	rep := d.Explore(scenario)
	if rep.Failure == nil {
		t.Fatal("search found no failure to replay")
	}
	// Strict replay of the failing trace reproduces the failure.
	if _, err := d.Replay(scenario, rep.Failure.Trace); err == nil {
		t.Fatal("strict replay of the failing trace passed")
	}
	if got := counter.Load(); got == 2 {
		t.Fatal("replayed schedule did not reproduce the lost update")
	}
	// A trace pointing at a goroutine parked elsewhere diverges loudly.
	bogus := append(Trace(nil), rep.Failure.Trace...)
	bogus[0].Point = PreAdopt
	if _, err := d.Replay(scenario, bogus); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("doctored trace replay error = %v, want divergence", err)
	}
}

// TestReplayTraceModes: strict replay rejects a decision for a goroutine
// that is not runnable and a trace that outlives the run; tolerant replay
// skips the inapplicable decision and reproduces the recorded schedule.
func TestReplayTraceModes(t *testing.T) {
	scenario, _ := racyCounter()
	d := &DFSExplorer{MaxPreemptions: 1, Timeout: 10 * time.Second}
	rep := d.Explore(scenario)
	if rep.Failure == nil {
		t.Fatal("search found no failure to replay")
	}
	tr := rep.Failure.Trace
	stray := append(Trace{tr[0], {Gor: "zz", Point: PointStart}}, tr[1:]...)
	if _, err := d.Replay(scenario, stray); err == nil || !strings.Contains(err.Error(), "not runnable") {
		t.Fatalf("strict replay of a stray decision: error = %v, want not runnable", err)
	}
	long := append(append(Trace(nil), tr...), tr[0])
	if _, err := d.Replay(scenario, long); err == nil || !strings.Contains(err.Error(), "1 trace steps left") {
		t.Fatalf("strict replay of an overlong trace: error = %v, want steps left", err)
	}
	c := NewController()
	c.SetTimeout(10 * time.Second)
	scenario(c)
	got, err := ReplayTrace(c, stray, false)
	if err != nil {
		t.Fatalf("tolerant replay: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("tolerant replay ran\n%s\nwant the recorded\n%s", got, tr)
	}
}

// TestTraceFileRoundTrip: traces and their scenario metadata survive the
// file format, which is what CI failure artifacts and -sched.trace rely
// on.
func TestTraceFileRoundTrip(t *testing.T) {
	tr := Trace{
		{Gor: "u0", Point: PointStart, Arg: 0},
		{Gor: "s1", Point: PostFirstCollect, Arg: 2},
		{Gor: "u0", Point: PreSlotWalk, Arg: 17},
	}
	meta := map[string]string{"seed": "42", "shape": "zipfian", "workers": "4"}
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := WriteTraceFile(path, meta, tr); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("trace round trip:\n%v\nvs\n%v", got, tr)
	}
	if !reflect.DeepEqual(gotMeta, meta) {
		t.Fatalf("meta round trip: %v vs %v", gotMeta, meta)
	}
	if _, _, err := ReadTraceFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("reading a missing trace file succeeded")
	}
}

// TestRunSeededDecisionsReplay: RunSeeded's recorded decisions replay its
// exact schedule on a fresh controller — the bridge that lets a failing
// seed from the random matrix be reproduced from its trace file alone.
func TestRunSeededDecisionsReplay(t *testing.T) {
	build := func(c *Controller, order *[]int) {
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		for i := 0; i < 3; i++ {
			i := i
			c.Spawn([]string{"x", "y", "z"}[i], func() {
				for k := 0; k < 3; k++ {
					c.Yield(PostFirstCollect, k)
					<-mu
					*order = append(*order, i*10+k)
					mu <- struct{}{}
				}
			})
		}
	}
	sc := NewController()
	sc.SetTimeout(10 * time.Second)
	var seedOrder []int
	build(sc, &seedOrder)
	decisions, err := RunSeeded(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) == 0 {
		t.Fatal("seeded run recorded no decisions")
	}

	c := NewController()
	c.SetTimeout(10 * time.Second)
	var replayOrder []int
	build(c, &replayOrder)
	if _, err := ReplayTrace(c, decisions, true); err != nil {
		t.Fatalf("strict replay of seeded decisions diverged: %v", err)
	}
	if !reflect.DeepEqual(seedOrder, replayOrder) {
		t.Fatalf("replay produced a different outcome: %v vs %v", seedOrder, replayOrder)
	}
}

// TestReplayTraceDivergedReleasesGoroutines: a strict replay that diverges
// detaches every goroutine it abandons, so each one still finishes instead
// of staying parked for the rest of the process.
func TestReplayTraceDivergedReleasesGoroutines(t *testing.T) {
	c := NewController()
	c.SetTimeout(10 * time.Second)
	worker := func() {
		c.Yield(PostFirstCollect, 0)
		c.Yield(PreCellStore, 0)
	}
	c.Spawn("a", worker)
	c.Spawn("b", worker)
	bogus := Trace{{Gor: "a", Point: PointStart}, {Gor: "a", Point: PreAdopt}}
	if _, err := ReplayTrace(c, bogus, true); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("doctored trace replay error = %v, want divergence", err)
	}
	finished := make(chan struct{})
	go func() {
		c.Wait("a")
		c.Wait("b")
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		c.DetachAll() // release the leaked goroutines so the waiter returns
		<-finished
		t.Fatal("diverged replay left its goroutines parked")
	}
}
