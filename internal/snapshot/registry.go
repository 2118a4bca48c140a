package snapshot

import (
	"sync/atomic"

	"partialsnapshot/internal/sched"
)

// This file is the announcement registry of LockFree: where scanners
// enroll the component sets they need helped and where updaters look for
// scans they are about to obstruct.
//
// The registry is sharded per component. Slot c holds a Treiber-style
// stack of enrollments, one for every live scan record that names
// component c; a record naming k components is enrolled in k slots
// (multi-enrollment). An updater consults only the slots of the components
// it is about to write, so operations on disjoint component sets touch
// disjoint cache lines and never observe each other's records — the
// paper's locality property held at the implementation level, not just the
// semantic one. An earlier revision kept a single global announcement
// stack, which made every updater load one shared head pointer and walk
// every live record regardless of overlap.
//
// Every record found in a walked slot intersects the updater's write set
// by construction, so the registry needs no intersection test; the price
// is that an update whose write set overlaps a record in several
// components sees that record once per shared slot, and the walk dedups
// (helpIntersectingScans keeps the per-walk seen list).
//
// A per-group quiescence summary sits in front of the slots (slotGroup in
// epoch.go): enroll raises each named component's group count before
// linking, retire lowers it after the done flag, and an updater loads the
// count once per written group — when it reads zero, every slot of the
// group it would walk is provably free of live enrollments and the walk is
// skipped outright (see helpIntersectingScans).
//
// Retirement is logical (rec.done) and unlinking is lazy and per-slot: the
// retiring owner sweeps consecutive stale enrollments off its own slots'
// heads (sweepStale — quiescent updates skip the slots, so somebody must),
// and the next walker or enroller of a slot unlinks retired enrollments it
// passes.
// A record can therefore be gone from one slot while still linked in
// another; walkers skip done records, so a reader that reaches a record
// through a stale slot never helps it. Unlink CASes can lose to each other
// or briefly resurrect an already-unlinked retired enrollment; both are
// harmless because only retired enrollments are ever unlinked and retired
// records are never visited.
//
// Records are pooled (pool.go), so "retired" has a second face: an
// enrollment can outlive not just its record's scan but its record's
// incarnation. Each enrollment therefore captures the record generation it
// was created for, and a walker treats a generation mismatch exactly like
// a done flag — unlink and move on. Before actually visiting, a walker
// also pins the record (takes a reference), which keeps it out of the pool
// for the duration of the visit; the pin can fail only if the record
// retired since the staleness check, in which case the enrollment is
// unlinkable after all. Enrollment nodes themselves are never pooled:
// walkers read next pointers of nodes that are already unlinked, and
// recycling one could splice a walk into a different incarnation of the
// list.

// enrollment links one scan record into one registry slot. A record
// enrolled in k slots owns k enrollment nodes, each with its own next
// pointer. gen pins down which incarnation of the record the enrollment
// belongs to.
type enrollment[V any] struct {
	rec  *scanRecord[V]
	gen  uint64
	next atomic.Pointer[enrollment[V]]
}

// stale reports whether e's record no longer needs this enrollment: its
// scan completed, or the record has moved on to a later incarnation.
func (e *enrollment[V]) stale() bool {
	return e.rec.done.Load() || e.rec.gen.Load() != e.gen
}

// slot is one component's announcement stack plus its locality gauges,
// padded so that slots of different components — head pointer and counters
// alike — never share a cache line (128 bytes covers the adjacent-line
// prefetcher pairing).
type slot[V any] struct {
	head    atomic.Pointer[enrollment[V]]
	walks   atomic.Uint64 // updater walks of this slot
	visited atomic.Uint64 // live records those walks encountered
	_       [104]byte
}

// registry is the announcement bookkeeping shared by every epoch. The
// slots themselves live in the universe (one per component of each epoch,
// aliased across epochs for surviving components — see epoch.go); an
// enrolling record carries the universe it pinned, so enroll and walkSlot
// always address slots through an explicit epoch, never through the
// object's current pointer.
type registry[V any] struct {
	live    atomic.Int64  // records enrolled and not yet retired
	deduped atomic.Uint64 // walk encounters skipped as already seen

	mut *mutations[V] // the owning object's mutation seams

	// yield is the schedule-injection hook, nil outside instrumented
	// tests. It fires at sched.PostEnroll after each per-slot enrollment,
	// at sched.PreUnlink before each lazy-unlink CAS (walk-path,
	// enroll-time and retire-sweep unlinks alike), and at sched.PreVisit
	// once per enrollment a walk loads, so the half-enrolled windows, the
	// unlink races (two walkers unlinking the same retired enrollment; an
	// unlinker racing a fresh enroller) and the
	// retire-and-recycle-under-a-walker races are scriptable rather than
	// yield-point gaps.
	yield func(p sched.Point, arg int)

	// release drops a walker's pin on a record (set by the owning
	// LockFree; whoever drops the last reference pools the record).
	release func(rec *scanRecord[V])
}

// enroll links rec into the slot of every component it names — in the
// epoch rec pinned (rec.uni), in the record's id order — opportunistically
// unlinking retired enrollments at each slot head.
func (r *registry[V]) enroll(rec *scanRecord[V]) {
	r.live.Add(1)
	// Raise every named component's slot-group summary BEFORE any head CAS
	// makes an enrollment findable. The order is the skip's soundness: an
	// updater that reads a zero count afterwards read it before this raise,
	// hence before every link — it is one of the finitely many pre-walk
	// updates the termination argument already tolerates (see
	// helpIntersectingScans and embeddedScan).
	for _, c := range rec.ids {
		rec.uni.groups[c>>groupShift].announced.Add(1)
	}
	gen := rec.gen.Load() // stable: the enrolling owner holds a reference
	for _, c := range rec.ids {
		e := &enrollment[V]{rec: rec, gen: gen}
		s := rec.uni.slots[c]
		for {
			head := s.head.Load()
			if head != nil && head.stale() {
				if r.yield != nil {
					r.yield(sched.PreUnlink, c)
				}
				s.head.CompareAndSwap(head, head.next.Load())
				continue
			}
			e.next.Store(head)
			if s.head.CompareAndSwap(head, e) {
				break
			}
		}
		if r.yield != nil {
			r.yield(sched.PostEnroll, c)
		}
	}
	if r.mut.earlySummaryDecrement {
		// Injected mutation: hand the counts back while the record is still
		// live, making it summary-invisible — updaters now skip slots that
		// hold an announced, unhelped scan.
		for _, c := range rec.ids {
			rec.uni.groups[c>>groupShift].announced.Add(-1)
		}
	}
}

// retire marks rec completed and lowers its slot-group summaries. The
// decrement comes strictly AFTER the done flag: between the two a group
// may read nonzero for a record that no longer needs help (a wasted walk),
// but a group can never read zero while some linked record still does.
// Enrollments stay linked until the retire-side sweep or the next walk or
// enroll of each slot unlinks them.
func (r *registry[V]) retire(rec *scanRecord[V]) {
	rec.done.Store(true)
	r.live.Add(-1)
	if !r.mut.earlySummaryDecrement {
		// rec.uni.groups are the very group objects enroll raised (aliased
		// across any epochs installed since), so the counts conserve.
		for _, c := range rec.ids {
			rec.uni.groups[c>>groupShift].announced.Add(-1)
		}
	}
}

// sweepStale pops consecutive stale enrollments off the head of every slot
// rec names. The retiring owner runs it right after retire: with the
// quiescence summary in place, updaters skip quiet groups' slots entirely
// and no longer unlink lazily there, so without this sweep the last
// retired enrollments of a slot would linger until the next announcement.
// Popping only from the head is enough for hygiene — a live head keeps its
// group's count nonzero, so walks (which unlink mid-chain) still happen
// there — and the final retirement of a fully-stale chain drains it.
func (r *registry[V]) sweepStale(rec *scanRecord[V]) {
	for _, c := range rec.ids {
		s := rec.uni.slots[c]
		for {
			head := s.head.Load()
			if head == nil || !head.stale() {
				break
			}
			if r.yield != nil {
				r.yield(sched.PreUnlink, c)
			}
			s.head.CompareAndSwap(head, head.next.Load())
		}
	}
}

// walkSlot visits every live record enrolled in component c's slot, newest
// enrollment first, unlinking stale enrollments (retired records and
// leftover paths to recycled ones) encountered on the way. The visit
// callback receives the enrollment's generation alongside the record so
// the caller's dedup can tell incarnations apart; the record is pinned for
// the duration of the callback, so it cannot return to the pool — and
// therefore cannot be recycled into a different scan — while the caller
// helps it. The newest-first order serves the deepest records of any help
// chain before the records that wait on them.
func (r *registry[V]) walkSlot(s *slot[V], c int, visit func(rec *scanRecord[V], gen uint64)) {
	s.walks.Add(1)
	cur := s.head.Load()
	if cur == nil {
		return // common case: no scanner names this component, zero overhead
	}
	var prev *enrollment[V]
	for cur != nil {
		if r.yield != nil {
			r.yield(sched.PreVisit, c)
		}
		next := cur.next.Load()
		// Three-step liveness check: a quick stale glance, then a pin, then
		// a recheck under the pin (the record may have retired — or retired
		// AND recycled — between the glance and the pin; the pin only
		// proves the count never reached zero, not that the incarnation is
		// still the enrollment's).
		live := !cur.stale() && cur.rec.pin()
		if live && cur.stale() {
			r.release(cur.rec)
			live = false
		}
		if !live {
			if r.yield != nil {
				r.yield(sched.PreUnlink, c)
			}
			if prev != nil {
				prev.next.CompareAndSwap(cur, next)
			} else {
				s.head.CompareAndSwap(cur, next)
			}
			cur = next
			continue
		}
		s.visited.Add(1)
		visit(cur.rec, cur.gen)
		r.release(cur.rec)
		prev = cur
		cur = next
	}
}

// slotLen counts enrollments currently linked in a slot,
// retired-but-not-yet-unlinked ones included (test helper).
func slotLen[V any](s *slot[V]) int {
	n := 0
	for cur := s.head.Load(); cur != nil; cur = cur.next.Load() {
		n++
	}
	return n
}
