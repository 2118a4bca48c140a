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
//   - Explored: an Explorer serialises all controlled goroutines and picks
//     the next one to run with a seeded PRNG at every step. Because exactly
//     one goroutine runs between yield points, the whole interleaving is a
//     pure function of the seed and a failure replays from its seed alone.
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
	// script (or the Explorer) controls it from its very first instruction.
	PointStart Point = "start"

	// PreEpochPin fires before an operation loads — pins — the current
	// universe pointer, i.e. before the epoch the whole operation will run
	// against is decided. arg = 0. Scripts park an operation here, install a
	// new epoch under it, and prove the resumed operation runs consistently
	// against whichever universe it then pins.
	PreEpochPin Point = "pre-epoch-pin"

	// PreEpochInstall fires inside Grow/Shrink, after the successor universe
	// is built and before the CAS that publishes it. arg = the successor's
	// component count. Scripts use it to race an install against in-flight
	// walks, enrollments and other installs.
	PreEpochInstall Point = "pre-epoch-install"

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

	// PreSummaryRead fires before an updater loads the quiescence summary
	// (the slot group's announced count) that decides whether the slots of
	// a group of components it is about to write need walking at all. arg =
	// the first written component of the group. An update yields here once
	// per distinct slot group in its write set — NOT once per component:
	// consecutive written components of the same group reuse one summary
	// read. Scripts park an updater here and race an enroller's
	// count-raise/head-CAS pair against the load (the boundary race the
	// skip's soundness argument covers).
	PreSummaryRead Point = "pre-summary-read"

	// PreSlotWalk fires before an updater walks the announcement registry
	// slot of one of the components it is about to write — only reached
	// when the component's slot-group summary read a nonzero count (see
	// PreSummaryRead). arg = the component id. A multi-component update
	// yields here once per named component in a non-quiescent group, which
	// is what makes retire-during-walk races scriptable.
	PreSlotWalk Point = "pre-slot-walk"

	// PreUnlink fires before a lazy-unlink CAS that removes a retired
	// enrollment from a registry slot — on the walk path and on the
	// enroll-time head cleanup alike. arg = the slot's component id.
	// Scripts use it to race two unlinkers of the same enrollment, or an
	// unlinker against a fresh enroller of the same slot (the
	// lose-or-resurrect races the registry documents as harmless).
	PreUnlink Point = "pre-unlink"

	// PreVisit fires inside an updater's walk of a registry slot, once per
	// linked enrollment, after the enrollment is loaded but before the
	// staleness checks (done flag, generation tag, pin) that decide whether
	// its record is visited. arg = the slot's component id. Scripts park a
	// walker here, retire and recycle the enrollment's record under it, and
	// then prove the resumed walker rejects the stale enrollment instead of
	// helping the record's new incarnation through the wrong slot.
	PreVisit Point = "pre-visit"

	// PreReuse fires when a scan announcement is about to recycle a pooled
	// record — after the record left the pool, before its generation is
	// bumped and its fields are reset, i.e. while stale enrollments from the
	// record's previous life still carry its current generation. arg = the
	// new record's help-chain level. The reuse-race regressions park here to
	// interleave stale walkers with the reset.
	PreReuse Point = "pre-reuse"

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

	// PreEpochRecheck fires after a pinned scan completed a view (a clean
	// double collect or an adopted one) and before the universe-pointer
	// re-load that decides whether the view survives: if a resize installed
	// since the pin and any named component no longer aliases the pinned
	// epoch's register, the view is discarded and the scan retakes under
	// the current epoch (see scanPinned). arg = the pinned universe's
	// epoch. Scripts park a scan here to slide a Shrink (and the write that
	// would make the stale view observable) into the window the recheck
	// exists to close.
	PreEpochRecheck Point = "pre-epoch-recheck"
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
