package sched

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Controller implements Scheduler for goroutines it spawned and lets a test
// script park and resume them one yield point at a time. Goroutines it does
// not own pass through Yield without stopping.
//
// Every blocking method carries a watchdog: if the awaited state does not
// arrive within the controller's timeout the method panics with a dump of
// every controlled goroutine's position, turning a deadlocked script into a
// readable failure instead of a test-suite hang.
type Controller struct {
	mu      sync.Mutex
	cond    *sync.Cond
	byGID   map[int64]*goroutineState
	byName  map[string]*goroutineState
	timeout time.Duration
}

type goroutineState struct {
	name   string
	resume chan struct{}

	// All fields below are guarded by Controller.mu.
	parked   bool
	done     bool
	detached bool
	point    Point
	arg      int
}

// NewController returns an empty controller with a 30s watchdog timeout.
func NewController() *Controller {
	c := &Controller{
		byGID:   make(map[int64]*goroutineState),
		byName:  make(map[string]*goroutineState),
		timeout: 30 * time.Second,
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// SetTimeout replaces the watchdog timeout. Only useful before the script
// starts driving.
func (c *Controller) SetTimeout(d time.Duration) { c.timeout = d }

// Spawn launches fn on a new controlled goroutine. The goroutine parks at
// PointStart before fn runs, so the script owns it from the first
// instruction; it must be moved with Resume/Step* (or Detach) to make
// progress. Names must be unique per controller.
func (c *Controller) Spawn(name string, fn func()) {
	g := &goroutineState{name: name, resume: make(chan struct{})}
	c.mu.Lock()
	if _, dup := c.byName[name]; dup {
		c.mu.Unlock()
		panic("sched: duplicate goroutine name " + name)
	}
	c.byName[name] = g
	c.mu.Unlock()
	go func() {
		id := gid()
		c.mu.Lock()
		c.byGID[id] = g
		c.mu.Unlock()
		c.park(g, PointStart, 0)
		fn()
		c.mu.Lock()
		g.done = true
		delete(c.byGID, id)
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
}

// Yield implements Scheduler: a controlled, non-detached goroutine parks at
// (p, arg) until resumed; everyone else falls straight through.
func (c *Controller) Yield(p Point, arg int) {
	c.mu.Lock()
	g := c.byGID[gid()]
	c.mu.Unlock()
	if g == nil {
		return
	}
	c.park(g, p, arg)
}

func (c *Controller) park(g *goroutineState, p Point, arg int) {
	c.mu.Lock()
	if g.detached {
		c.mu.Unlock()
		return
	}
	g.parked = true
	g.point = p
	g.arg = arg
	c.cond.Broadcast()
	c.mu.Unlock()
	<-g.resume
}

func (c *Controller) lookup(name string) *goroutineState {
	c.mu.Lock()
	g := c.byName[name]
	c.mu.Unlock()
	if g == nil {
		panic("sched: unknown goroutine " + name)
	}
	return g
}

// Resume unparks the named goroutine, first waiting for it to park if it is
// still running toward its next yield point. Panics if the goroutine already
// finished.
func (c *Controller) Resume(name string) {
	g := c.lookup(name)
	deadline := time.Now().Add(c.timeout)
	c.mu.Lock()
	for !g.parked {
		if g.done {
			c.mu.Unlock()
			panic("sched: Resume of finished goroutine " + name)
		}
		c.waitLocked(deadline, name+" to park")
	}
	g.parked = false
	c.mu.Unlock()
	g.resume <- struct{}{}
}

// AwaitPark blocks until the named goroutine is parked and reports its
// position. ok is false if the goroutine finished instead of parking.
func (c *Controller) AwaitPark(name string) (p Point, arg int, ok bool) {
	g := c.lookup(name)
	deadline := time.Now().Add(c.timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for !g.parked && !g.done {
		c.waitLocked(deadline, name+" to park or finish")
	}
	if g.done {
		return "", 0, false
	}
	return g.point, g.arg, true
}

// Step resumes the named goroutine and waits for its next park (or its
// completion, reported as ok=false).
func (c *Controller) Step(name string) (p Point, arg int, ok bool) {
	c.Resume(name)
	return c.AwaitPark(name)
}

// StepUntil steps the named goroutine until it parks at p, returning that
// park's arg. ok is false if the goroutine finished before reaching p.
func (c *Controller) StepUntil(name string, p Point) (arg int, ok bool) {
	for {
		pt, a, running := c.Step(name)
		if !running {
			return 0, false
		}
		if pt == p {
			return a, true
		}
	}
}

// RunToCompletion steps the named goroutine past every remaining yield point
// until it finishes.
func (c *Controller) RunToCompletion(name string) {
	for {
		if _, _, running := c.Step(name); !running {
			return
		}
	}
}

// Detach releases the named goroutine from the controller: it stops parking
// at yield points and free-runs to completion (resumed first if currently
// parked).
func (c *Controller) Detach(name string) {
	g := c.lookup(name)
	c.mu.Lock()
	g.detached = true
	wasParked := g.parked
	g.parked = false
	c.mu.Unlock()
	if wasParked {
		g.resume <- struct{}{}
	}
}

// DetachAll detaches every controlled goroutine that has not finished, so
// an abandoned schedule (livelock abort, nondeterminism abort) drains to
// completion instead of leaking parked goroutines. Running goroutines stop
// parking at their next yield; parked ones are released immediately.
func (c *Controller) DetachAll() {
	c.mu.Lock()
	var release []*goroutineState
	for _, g := range c.byName {
		if g.done || g.detached {
			continue
		}
		g.detached = true
		if g.parked {
			g.parked = false
			release = append(release, g)
		}
	}
	c.mu.Unlock()
	for _, g := range release {
		g.resume <- struct{}{}
	}
}

// Wait blocks until the named goroutine finishes. The goroutine must be
// running or detached — waiting on a parked goroutine would deadlock, and
// the watchdog reports it as such.
func (c *Controller) Wait(name string) {
	g := c.lookup(name)
	deadline := time.Now().Add(c.timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for !g.done {
		c.waitLocked(deadline, name+" to finish")
	}
}

// AwaitAllParked blocks until no controlled goroutine is running (each is
// parked, done, or detached) and returns the sorted names of the parked
// ones. The sort makes the runnable set deterministic for every driver.
func (c *Controller) AwaitAllParked() []string {
	deadline := time.Now().Add(c.timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		running := false
		var parked []string
		for name, g := range c.byName {
			if g.done || g.detached {
				continue
			}
			if g.parked {
				parked = append(parked, name)
			} else {
				running = true
				break
			}
		}
		if !running {
			sort.Strings(parked)
			return parked
		}
		c.waitLocked(deadline, "all goroutines to park")
	}
}

// waitLocked is cond.Wait with the watchdog: it re-checks the deadline every
// poll interval and panics with a state dump once it passes. Callers hold
// c.mu and re-test their predicate after it returns.
func (c *Controller) waitLocked(deadline time.Time, what string) {
	if time.Now().After(deadline) {
		panic("sched: watchdog timeout waiting for " + what + "\n" + c.dumpLocked())
	}
	t := time.AfterFunc(50*time.Millisecond, c.cond.Broadcast)
	c.cond.Wait()
	t.Stop()
}

func (c *Controller) dumpLocked() string {
	var names []string
	for name := range c.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		g := c.byName[name]
		switch {
		case g.done:
			fmt.Fprintf(&b, "  %s: done\n", name)
		case g.detached:
			fmt.Fprintf(&b, "  %s: detached\n", name)
		case g.parked:
			fmt.Fprintf(&b, "  %s: parked at %s(%d)\n", name, g.point, g.arg)
		default:
			fmt.Fprintf(&b, "  %s: running\n", name)
		}
	}
	return b.String()
}
