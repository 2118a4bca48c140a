package sched

import (
	"fmt"
	"math/rand"
)

// maxSteps bounds one schedule of any driver, so a livelocked schedule (a
// bug this harness exists to catch) fails with its trace in hand instead of
// hanging the suite. Real schedules run a few hundred steps.
const maxSteps = 100_000

// drive is the one run loop under every driver. At each step it waits for
// every controlled goroutine to park, resumes the one choose picks from
// their name-sorted park positions, and records that decision; once no
// goroutine is left it returns the decisions. Because exactly one goroutine
// runs between yield points, the schedule — and any failure — is a pure
// function of choose's answers. A schedule that reaches limit steps
// without quiescing, or an error from choose, detaches every goroutine
// left and returns the error with the trace so far.
func drive(c *Controller, limit int, choose func(runnable []Step) (int, error)) (Trace, error) {
	var tr Trace
	for {
		names := c.AwaitAllParked()
		if len(names) == 0 {
			return tr, nil
		}
		if len(tr) >= limit {
			c.DetachAll()
			return tr, fmt.Errorf("sched: schedule exceeded %d steps without quiescing (livelock)", limit)
		}
		runnable := positionsOf(c, names)
		i, err := choose(runnable)
		if err != nil {
			c.DetachAll()
			return tr, err
		}
		tr = append(tr, runnable[i])
		c.Step(runnable[i].Gor)
	}
}

// positionsOf reports the park position of every named goroutine. All must
// be parked (the caller just observed them via AwaitAllParked and nothing
// has been resumed since).
func positionsOf(c *Controller, names []string) []Step {
	out := make([]Step, len(names))
	for i, nm := range names {
		p, arg, ok := c.AwaitPark(nm)
		if !ok {
			// Unreachable: a parked goroutine cannot finish while nobody
			// resumes it.
			panic("sched: goroutine " + nm + " vanished between AwaitAllParked and AwaitPark")
		}
		out[i] = Step{Gor: nm, Point: p, Arg: arg}
	}
	return out
}

// RunSeeded drives every goroutine spawned on c to completion under a
// serialised pseudo-random schedule: at each step the seeded PRNG picks
// which parked goroutine runs to its next yield point. The schedule is a
// deterministic function of the seed, so rerunning with the same seed
// replays it, and the returned decisions replay it through ReplayTrace (or
// a trace file) without the seed. Every Spawn the test intends to control
// must happen before RunSeeded: a goroutine spawned later would race the
// serialised schedule.
func RunSeeded(c *Controller, seed int64) (Trace, error) {
	rng := rand.New(rand.NewSource(seed))
	return drive(c, maxSteps, func(runnable []Step) (int, error) {
		return rng.Intn(len(runnable)), nil
	})
}

// ReplayTrace drives a controller's goroutines along a recorded schedule:
// each decision resumes its goroutine (strict mode errors if the goroutine
// is missing or parked elsewhere; tolerant mode skips inapplicable
// decisions), and once the trace is exhausted the remaining goroutines
// drain under the deterministic non-preemptive default. It returns the
// full observed trace, prefix and drain included.
func ReplayTrace(c *Controller, tr Trace, strict bool) (Trace, error) {
	return replayTrace(c, tr, strict, maxSteps)
}

func replayTrace(c *Controller, tr Trace, strict bool, limit int) (Trace, error) {
	next, last := 0, ""
	got, err := drive(c, limit, func(runnable []Step) (int, error) {
		for ; next < len(tr); next++ {
			want := tr[next]
			for i, st := range runnable {
				if st.Gor != want.Gor {
					continue
				}
				if strict && st != want {
					return 0, fmt.Errorf("sched: replay diverged at step %d: %s parked at %s(%d), trace says %s", next, st.Gor, st.Point, st.Arg, want)
				}
				next++
				last = st.Gor
				return i, nil
			}
			if strict {
				return 0, fmt.Errorf("sched: replay diverged at step %d: %s is not runnable (runnable: %v)", next, want.Gor, Trace(runnable))
			}
		}
		// Drain: continue the previous goroutine while it runs, else the
		// first by name.
		pick := 0
		for i, st := range runnable {
			if st.Gor == last {
				pick = i
			}
		}
		last = runnable[pick].Gor
		return pick, nil
	})
	if err == nil && strict && next < len(tr) {
		err = fmt.Errorf("sched: all goroutines finished with %d trace steps left (first: %s)", len(tr)-next, tr[next])
	}
	return got, err
}
