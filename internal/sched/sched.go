// Package sched is a schedule-injection harness for deterministic
// concurrency testing.
//
// Instrumented code (internal/snapshot's LockFree) calls Yield at named
// points on its hot paths. In production the scheduler hook is nil and the
// yield is a single predictable branch. Under test, a Controller intercepts
// yields from goroutines it owns and parks them until the test script says
// otherwise, so an adversarial interleaving — nested helping, help-of-helper,
// the starvation schedule that defeated a bounded helper — becomes a
// straight-line script instead of a prayer to the runtime scheduler.
//
// Two driving styles sit on top of the same Controller:
//
//   - Scripted: the test spawns goroutines with Controller.Spawn and moves
//     them explicitly (StepUntil, Resume, AwaitPark) from one named yield
//     point to the next.
//   - Driven: one run loop serialises all controlled goroutines and, at
//     every step, resumes the parked one a choose function picks. A driver
//     is a choose function over that loop: RunSeeded picks with a seeded
//     PRNG, DFSExplorer walks a decision tree, ReplayTrace follows a
//     recorded trace. Because exactly one goroutine runs between yield
//     points, the whole interleaving is a pure function of the choices, and
//     a failure replays from its seed or its recorded trace alone.
//
// Goroutines the Controller has never been told about (including the test's
// own goroutine) pass through Yield untouched, so a script can mix
// controlled actors with free-running ones.
package sched

import (
	"bytes"
	"runtime"
	"strconv"
)

// Point names one yield location in instrumented code. The set below is the
// yield-point map of internal/snapshot.LockFree; the arg passed alongside a
// Point carries the point's natural parameter (help-chain level or component
// id, as documented per constant).
type Point string

const (
	// PointStart is the implicit first park of every controlled goroutine:
	// Spawn parks the goroutine at PointStart before its function runs, so a
	// script (or a driver) controls it from its very first instruction.
	PointStart Point = "start"

	// PostFirstCollect fires between the two collects of a double collect —
	// the window in which a concurrent write tears the scan. arg = help-chain
	// level (0 for a scanner's own collects, k >= 1 inside the embedded scan
	// helping a level-(k-1) record).
	PostFirstCollect Point = "post-first-collect"

	// PostEnroll fires after a scan record is linked into the announcement
	// registry slot of one of its components, while enrollment in the
	// record's remaining slots is still pending. arg = the component id just
	// enrolled. Scripts use it to expose a record through some of its slots
	// but not others (the multi-slot enroll races).
	PostEnroll Point = "post-enroll"

	// PostAnnounce fires once a scan record is fully enrolled in the
	// registry slots of every component it names. arg = the record's level.
	PostAnnounce Point = "post-announce"

	// PreSlotWalk fires right before an updater loads the head of the
	// announcement registry slot of one of the components it is about to
	// write — the one load that is its whole consultation of that
	// component when the head is nil. arg = the component id. A
	// multi-component update yields here once per named component. Scripts
	// park an updater here and race an enroller's head CAS against the load
	// (a load after the CAS walks and helps; a load before it is a pre-walk
	// update), or retire a record under the walk that follows.
	PreSlotWalk Point = "pre-slot-walk"

	// PreUnlink fires before a lazy-unlink CAS that removes a retired
	// enrollment from a registry slot — on the walk path and on the
	// enroll-time head cleanup alike. arg = the slot's component id.
	// Scripts use it to race two unlinkers of the same enrollment, or an
	// unlinker against a fresh enroller of the same slot (the
	// lose-or-resurrect races the registry documents as harmless).
	PreUnlink Point = "pre-unlink"

	// PreVisit fires inside an updater's walk of a registry slot, once per
	// linked enrollment, after the enrollment is loaded but before the done
	// check that decides whether its record is visited or unlinked. arg =
	// the slot's component id. Scripts park a walker here to hold it
	// inside a slot while other operations announce or retire.
	PreVisit Point = "pre-visit"

	// PreHelpScan fires when an updater decides to help an announced record,
	// before its embedded scan starts. arg = the embedded scan's level
	// (target level + 1).
	PreHelpScan Point = "pre-help-scan"

	// PreHelpPost fires after an embedded scan produced a consistent view,
	// before the CAS that publishes it on the target record. arg = target
	// record's level.
	PreHelpPost Point = "pre-help-post"

	// PreCellStore fires before each individual component store of an
	// Update, after all helping is done. arg = component id. A multi-
	// component batch yields here once per component, which is what makes
	// half-applied batches scriptable.
	PreCellStore Point = "pre-cell-store"

	// PreAdopt fires when a scan found a posted help view and is about to
	// return it. arg = the adopting record's level.
	PreAdopt Point = "pre-adopt"
)

// Scheduler receives yield callbacks from instrumented code. Yield must be
// safe for concurrent use and must eventually return; a Controller returns
// once the test script resumes the yielding goroutine.
type Scheduler interface {
	Yield(p Point, arg int)
}

// gid returns the runtime id of the calling goroutine, parsed from the
// runtime.Stack header ("goroutine 123 [running]:"). The id is stable for
// the goroutine's lifetime and is how the Controller recognises goroutines
// it owns without threading a handle through the instrumented API.
func gid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		if id, err := strconv.ParseInt(string(s[:i]), 10, 64); err == nil {
			return id
		}
	}
	panic("sched: cannot parse goroutine id from stack header")
}
