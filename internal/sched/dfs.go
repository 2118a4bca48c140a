package sched

import (
	"fmt"
	"slices"
	"time"
)

// This file is the systematic driver on top of the Controller: where
// RunSeeded samples one pseudo-random serialised schedule per seed, the
// DFSExplorer enumerates *every* serialised schedule of a scenario up to a
// preemption bound, evaluates an oracle after each one, and on failure
// hands back the failing schedule as a replayable trace. The design is the
// classic stateless model checking loop (CHESS-style): goroutines cannot be
// checkpointed, so each schedule re-runs the scenario from scratch while a
// persistent tree of decision nodes steers drive down the next unexplored
// branch.
//
// Preemption bounding: switching away from a goroutine that is still
// runnable costs one preemption; switching because the previous goroutine
// finished is free. Most concurrency bugs need very few preemptions
// (CHESS's empirical result), so a bound of 2-3 turns an exponential
// schedule space into an exhaustively searchable one — see PAPER.md for
// the bound argument as it applies to the snapshot object's yield map.

// Scenario builds one fresh instance of the system under test on the given
// controller: it spawns every controlled goroutine (same names every call —
// the search replays decision prefixes by name) and returns the oracle to
// evaluate once the schedule has run to completion. Setup may also drive
// the controller directly (Spawn + StepUntil) to pin a deterministic
// prefix — exploration then starts from wherever setup parked everyone.
// Everything the scenario does must be deterministic given the schedule.
type Scenario func(c *Controller) Oracle

// Oracle judges one completed schedule, given the trace that produced it.
// A non-nil error fails the search and is reported with the trace.
type Oracle func(tr Trace) error

// DFSExplorer enumerates the serialised schedules of a Scenario with at
// most MaxPreemptions preemptions, depth-first. The zero value explores
// only non-preemptive schedules (every ordering of goroutine completions,
// no mid-run switches); tests normally set MaxPreemptions to 1-3.
type DFSExplorer struct {
	// MaxPreemptions bounds the preemptions per schedule. Free context
	// switches (the previous goroutine finished) are always explored.
	MaxPreemptions int
	// MaxSchedules caps the total schedules explored; 0 = unlimited. When
	// the cap trips, the Report has Capped set and Exhausted unset.
	MaxSchedules int
	// MaxScheduleSteps aborts any single schedule that exceeds this many
	// scheduling steps and reports it as a failure (a livelock is a
	// wait-freedom violation, and this is how the searcher catches one).
	// 0 = the default of 100,000 that every driver shares.
	MaxScheduleSteps int
	// Timeout is the per-run controller watchdog; 0 keeps the controller
	// default.
	Timeout time.Duration
	// Independent, when non-nil, enables sleep-set pruning: after the
	// search has explored running a from some state, it skips running b
	// first from that same state whenever Independent(b, a) — the two
	// orders commute, so the b-first subtree is redundant. The relation
	// must be sound: independent steps must leave ALL state either
	// goroutine (or the oracle) can observe identical in both orders. See
	// FootprintIndependence.
	Independent func(a, b Step) bool
}

// Report is the outcome of one Explore call.
type Report struct {
	// Schedules is the number of complete schedules run (the failing one
	// included).
	Schedules int
	// Steps is the total scheduling steps across all schedules.
	Steps int
	// SleepSkips counts branches pruned by the sleep sets.
	SleepSkips int
	// BudgetSkips counts branches pruned by the preemption bound.
	BudgetSkips int
	// Exhausted is true when the whole bounded schedule space was explored
	// without a failure and without hitting MaxSchedules.
	Exhausted bool
	// Capped is true when MaxSchedules stopped the search early.
	Capped bool
	// Failure is non-nil when some schedule failed its oracle (or
	// livelocked, or the scenario turned out to be nondeterministic).
	Failure *Failure
}

// Failure describes the first failing schedule.
type Failure struct {
	// Err is the oracle (or livelock) error.
	Err error
	// Trace is the failing schedule; strict replay reproduces the failure.
	// It is not shrunk: a complete trace's length is fixed by how many
	// times each goroutine yields, so a shorter one needs a schedule with
	// fewer retries, and such a schedule does not fail.
	Trace Trace
	// Schedule is the 1-based index of the failing schedule in DFS order.
	Schedule int
}

// node is one decision point of the current DFS path: the runnable set
// observed there, which branch the current run takes, which branches are
// already explored, and which are pruned by the sleep set.
type node struct {
	runnable []Step          // parked goroutines and positions, name-sorted
	last     string          // goroutine that ran the previous step ("" at root)
	preempts int             // preemptions spent on the path up to this node
	chosen   int             // index into runnable of the branch the current run takes
	tried    map[string]bool // branches fully explored (or pruned) at this node
	sleep    map[string]bool // branches redundant here by sleep-set reasoning
}

// cost is the preemption price of resuming gor at this node: 1 when it
// switches away from a still-runnable previous goroutine.
func (n *node) cost(gor string) int {
	if n.last == "" || gor == n.last {
		return 0
	}
	for _, st := range n.runnable {
		if st.Gor == n.last {
			return 1
		}
	}
	return 0
}

// Explore runs the bounded depth-first search and reports the outcome. The
// first run takes the all-defaults schedule (non-preemptive, continue the
// current goroutine); each subsequent run follows the recorded decision
// prefix to the deepest node with an unexplored in-budget branch and
// diverges there.
func (d *DFSExplorer) Explore(s Scenario) Report {
	var rep Report
	var path []*node
	for {
		if d.MaxSchedules > 0 && rep.Schedules >= d.MaxSchedules {
			rep.Capped = true
			return rep
		}
		tr, oracle, newPath, runErr := d.runOne(s, path)
		path = newPath
		rep.Schedules++
		rep.Steps += len(tr)
		err := runErr
		if err == nil && oracle != nil {
			err = oracle(tr)
		}
		if err != nil {
			rep.Failure = &Failure{Err: err, Trace: tr, Schedule: rep.Schedules}
			return rep
		}
		if !d.backtrack(&path, &rep) {
			rep.Exhausted = true
			return rep
		}
	}
}

// start builds one fresh scenario instance on a new controller with the
// explorer's watchdog, and returns it with its oracle and step cap.
func (d *DFSExplorer) start(s Scenario) (*Controller, Oracle, int) {
	c := NewController()
	if d.Timeout > 0 {
		c.SetTimeout(d.Timeout)
	}
	limit := d.MaxScheduleSteps
	if limit <= 0 {
		limit = maxSteps
	}
	return c, s(c), limit
}

// runOne executes one schedule: its choose follows the choices recorded in
// path, extends the path with fresh nodes (default choices) past the
// prefix, and the run returns the decision trace plus the scenario's
// oracle.
func (d *DFSExplorer) runOne(s Scenario, path []*node) (Trace, Oracle, []*node, error) {
	c, oracle, limit := d.start(s)
	depth := 0
	tr, err := drive(c, limit, func(steps []Step) (int, error) {
		if depth < len(path) {
			if nd := path[depth]; !slices.Equal(nd.runnable, steps) {
				return 0, fmt.Errorf(
					"sched: scenario is nondeterministic: replaying the recorded prefix reached runnable set %v, search saw %v",
					Trace(steps), Trace(nd.runnable))
			}
		} else {
			var parent *node
			if depth > 0 {
				parent = path[depth-1]
			}
			path = append(path, d.newNode(steps, parent))
		}
		depth++
		return path[depth-1].chosen, nil
	})
	return tr, oracle, path, err
}

// newNode builds the decision node for a freshly reached state, whose
// parent (nil at the root) took the step that reached it: its sleep set is
// inherited from the parent (previously explored or sleeping sibling
// branches that are independent of the step just taken stay redundant
// here), and its default branch continues the previous goroutine when that
// is runnable and not sleeping.
func (d *DFSExplorer) newNode(steps []Step, parent *node) *node {
	nd := &node{
		runnable: steps,
		tried:    make(map[string]bool),
		sleep:    make(map[string]bool),
	}
	if parent != nil {
		chosen := parent.runnable[parent.chosen]
		nd.last = chosen.Gor
		nd.preempts = parent.preempts + parent.cost(chosen.Gor)
		for _, st := range parent.runnable {
			if st.Gor == chosen.Gor || d.Independent == nil {
				continue
			}
			if (parent.sleep[st.Gor] || parent.tried[st.Gor]) && d.Independent(st, chosen) {
				nd.sleep[st.Gor] = true
			}
		}
	}
	pick := -1
	for i, st := range steps {
		if nd.sleep[st.Gor] {
			continue
		}
		if st.Gor == nd.last {
			pick = i
			break
		}
		if pick < 0 {
			pick = i
		}
	}
	// All branches sleeping degenerates to branch 0: the subtree is
	// redundant but the run must still drain, and backtrack will not
	// schedule siblings from it.
	if pick < 0 {
		pick = 0
	}
	nd.chosen = pick
	return nd
}

// backtrack marks the current branch of the deepest node explored and
// advances to the next unexplored in-budget branch, popping exhausted
// nodes. It reports false when the whole bounded space is done.
func (d *DFSExplorer) backtrack(path *[]*node, rep *Report) bool {
	p := *path
	for len(p) > 0 {
		n := p[len(p)-1]
		n.tried[n.runnable[n.chosen].Gor] = true
		next := -1
		for i, st := range n.runnable {
			if n.tried[st.Gor] {
				continue
			}
			if n.sleep[st.Gor] {
				n.tried[st.Gor] = true
				rep.SleepSkips++
				continue
			}
			if n.preempts+n.cost(st.Gor) > d.MaxPreemptions {
				n.tried[st.Gor] = true
				rep.BudgetSkips++
				continue
			}
			next = i
			break
		}
		if next >= 0 {
			n.chosen = next
			*path = p
			return true
		}
		p = p[:len(p)-1]
	}
	*path = p
	return false
}

// Replay re-runs a scenario under a strict replay of tr — every recorded
// decision must find its goroutine parked exactly where the trace says —
// then drains the remaining goroutines non-preemptively and evaluates the
// oracle. It returns the full observed trace. This is how a trace file
// recorded by a failing search (or a failing seeded exploration) is
// reproduced without re-searching.
func (d *DFSExplorer) Replay(s Scenario, tr Trace) (Trace, error) {
	c, oracle, limit := d.start(s)
	got, err := replayTrace(c, tr, true, limit)
	if err == nil && oracle != nil {
		err = oracle(got)
	}
	return got, err
}

// FootprintIndependence builds a sleep-set independence relation from
// declared per-goroutine component footprints: two steps are independent
// iff both goroutines declared a footprint and the footprints are
// disjoint. The declaration is a promise that EVERYTHING the goroutine
// touches for the rest of its life — components read or written, any
// shared counters or recorders the oracle inspects — lives inside its
// footprint; goroutines sharing a history recorder whose timestamps the
// oracle compares must not be declared independent. Goroutines with no
// declared footprint are dependent on everybody, so the zero declaration
// prunes nothing.
func FootprintIndependence(footprints map[string][]int) func(a, b Step) bool {
	sets := make(map[string]map[int]bool, len(footprints))
	for g, comps := range footprints {
		m := make(map[int]bool, len(comps))
		for _, c := range comps {
			m[c] = true
		}
		sets[g] = m
	}
	return func(a, b Step) bool {
		fa, oka := sets[a.Gor]
		fb, okb := sets[b.Gor]
		if !oka || !okb {
			return false
		}
		for c := range fa {
			if fb[c] {
				return false
			}
		}
		return true
	}
}
