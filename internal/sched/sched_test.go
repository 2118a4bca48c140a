package sched

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestScriptedInterleaving drives two goroutines through a hand-written
// interleaving of a shared counter and asserts the script fully determines
// the observed order.
func TestScriptedInterleaving(t *testing.T) {
	c := NewController()
	c.SetTimeout(5 * time.Second)
	var counter atomic.Int64
	worker := func() {
		c.Yield(PostFirstCollect, 0)
		counter.Add(1)
		c.Yield(PreCellStore, int(counter.Load()))
	}
	c.Spawn("a", worker)
	c.Spawn("b", worker)

	// Both park at start before running a single instruction.
	for _, name := range []string{"a", "b"} {
		p, _, ok := c.AwaitPark(name)
		if !ok || p != PointStart {
			t.Fatalf("%s initial park = %v,%v, want %v", name, p, ok, PointStart)
		}
	}
	// Interleave: a to its first yield, then b all the way through, then a.
	if p, _, ok := c.Step("a"); !ok || p != PostFirstCollect {
		t.Fatalf("a step = %v,%v", p, ok)
	}
	if arg, ok := c.StepUntil("b", PreCellStore); !ok || arg != 1 {
		t.Fatalf("b reached PreCellStore with arg %d (ok=%v), want 1", arg, ok)
	}
	c.RunToCompletion("b")
	if arg, ok := c.StepUntil("a", PreCellStore); !ok || arg != 2 {
		t.Fatalf("a reached PreCellStore with arg %d (ok=%v), want 2", arg, ok)
	}
	c.RunToCompletion("a")
	if got := counter.Load(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
}

// TestUncontrolledGoroutinePassesThrough checks that Yield from a goroutine
// the controller does not own returns immediately.
func TestUncontrolledGoroutinePassesThrough(t *testing.T) {
	c := NewController()
	done := make(chan struct{})
	go func() {
		c.Yield(PostFirstCollect, 0) // must not park
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("uncontrolled goroutine parked at a yield point")
	}
}

// TestDetachReleasesParkedGoroutine detaches a goroutine parked mid-script
// and checks it free-runs to completion through its remaining yields.
func TestDetachReleasesParkedGoroutine(t *testing.T) {
	c := NewController()
	c.SetTimeout(5 * time.Second)
	var ran atomic.Bool
	c.Spawn("w", func() {
		c.Yield(PostFirstCollect, 0)
		c.Yield(PreCellStore, 0)
		ran.Store(true)
	})
	if _, ok := c.StepUntil("w", PostFirstCollect); !ok {
		t.Fatal("w never reached PostFirstCollect")
	}
	c.Detach("w")
	c.Wait("w")
	if !ran.Load() {
		t.Fatal("detached goroutine did not finish")
	}
}

// TestRunSeededDeterministicReplay runs the same seeded exploration twice
// over a workload whose result depends on the interleaving, and requires
// identical traces and identical outcomes; a different seed must still
// complete with a valid (possibly different) outcome.
func TestRunSeededDeterministicReplay(t *testing.T) {
	run := func(seed int64) (Trace, []int) {
		c := NewController()
		c.SetTimeout(5 * time.Second)
		var order []int
		var mu chan struct{} = make(chan struct{}, 1)
		mu <- struct{}{}
		record := func(id int) {
			<-mu
			order = append(order, id)
			mu <- struct{}{}
		}
		for i := 0; i < 3; i++ {
			i := i
			c.Spawn([]string{"x", "y", "z"}[i], func() {
				for k := 0; k < 3; k++ {
					c.Yield(PostFirstCollect, k)
					record(i*10 + k)
				}
			})
		}
		tr, err := RunSeeded(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		return tr, order
	}
	t1, o1 := run(42)
	t2, o2 := run(42)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("same seed produced different traces:\n%v\n%v", t1, t2)
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Fatalf("same seed produced different outcomes: %v vs %v", o1, o2)
	}
	if len(o1) != 9 {
		t.Fatalf("exploration lost steps: observed %d records, want 9", len(o1))
	}
	t3, _ := run(43)
	if len(t3) == 0 {
		t.Fatal("seed 43 exploration recorded no trace")
	}
}

// TestRunSeededCatchesLivelock: a seeded schedule that never quiesces
// within the step cap fails with its trace instead of panicking, and the
// goroutine it abandons drains.
func TestRunSeededCatchesLivelock(t *testing.T) {
	c := NewController()
	c.SetTimeout(10 * time.Second)
	c.Spawn("spinner", func() {
		// More yields than the step cap; finite so the detached goroutine
		// drains after the abort.
		for i := 0; i < maxSteps+10; i++ {
			c.Yield(PostFirstCollect, 0)
		}
	})
	tr, err := RunSeeded(c, 1)
	if err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("livelocked seeded run error = %v, want livelock", err)
	}
	if len(tr) != maxSteps {
		t.Fatalf("livelock trace has %d steps, want the %d-step cap", len(tr), maxSteps)
	}
	c.Wait("spinner")
}
