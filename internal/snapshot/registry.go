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
// An updater's consultation of a slot is one load of its head: nil means
// no scan is enrolled there, and the update moves on without touching the
// slot's counters (see helpIntersectingScans).
//
// Retirement is logical (rec.done) and unlinking is lazy and per-slot: the
// retiring owner sweeps consecutive stale enrollments off its own slots'
// heads (sweepStale), and the next walker or enroller of a slot unlinks
// retired enrollments it passes. A record can therefore be gone from one
// slot while still linked in another; walkers skip done records, so a
// reader that reaches a record through a stale slot never helps it. Unlink CASes can lose to each other
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
	walks   atomic.Uint64 // consultations that found a non-nil head
	visited atomic.Uint64 // live records those walks encountered
	_       [104]byte
}

// announce links rec into the slot of every component it names — in the
// epoch rec pinned (rec.uni), in the record's id order — opportunistically
// unlinking retired enrollments at each slot head. Each head CAS is where
// an updater's consultation of that component starts to find rec.
func (o *LockFree[V]) announce(rec *scanRecord[V]) {
	o.live.Add(1)
	gen := rec.gen.Load() // stable: the enrolling owner holds a reference
	for _, c := range rec.ids {
		e := &enrollment[V]{rec: rec, gen: gen}
		s := rec.uni.slots[c]
		for {
			head := s.head.Load()
			if head != nil && head.stale() {
				o.yield(sched.PreUnlink, c)
				s.head.CompareAndSwap(head, head.next.Load())
				continue
			}
			e.next.Store(head)
			if s.head.CompareAndSwap(head, e) {
				break
			}
		}
		o.yield(sched.PostEnroll, c)
	}
}

// retire marks rec completed, sweeps its stale enrollments off its slots'
// heads and drops the owner's reference; deeper enrollments are unlinked
// lazily by later walks and announces, and the record itself returns to
// the pool once the last pinned helper lets go. The sweep runs before any
// pooling path so rec.ids and rec.uni are still this incarnation's.
func (o *LockFree[V]) retire(rec *scanRecord[V]) {
	rec.done.Store(true)
	o.live.Add(-1)
	o.sweepStale(rec)
	if o.mut.unsafeEagerRelease {
		// Test-only mutation seam: return the record to the pool the moment
		// the owner retires it, ignoring helper pins — the use-after-reuse
		// bug the reference count exists to prevent. While the seam is
		// active, retire is the ONLY pooling site (releaseRef checks the
		// flag): a lingering helper's release after the record has been
		// recycled would otherwise drop the new owner's count to zero and
		// pool the same live record twice.
		rec.refs.Store(0)
		o.records.put(rec)
		return
	}
	o.releaseRef(rec)
}

// sweepStale pops consecutive stale enrollments off the head of every slot
// rec names. Without it the last retired enrollment of a slot would linger
// as its head until the next announcement, and every update of the
// component would walk it instead of reading a nil head: the sweep is what
// keeps a quiet slot's consultation one load. Popping only from the head
// is enough — a live head means updates walk the slot anyway, unlinking
// mid-chain as they go — and the final retirement of a fully-stale chain
// drains it.
func (o *LockFree[V]) sweepStale(rec *scanRecord[V]) {
	for _, c := range rec.ids {
		s := rec.uni.slots[c]
		for {
			head := s.head.Load()
			if head == nil || !head.stale() {
				break
			}
			o.yield(sched.PreUnlink, c)
			s.head.CompareAndSwap(head, head.next.Load())
		}
	}
}

// walkSlot visits every live record enrolled in component c's slot s,
// starting from head (the non-nil head the caller's consultation loaded),
// newest enrollment first, unlinking stale enrollments (retired records and
// leftover paths to recycled ones) encountered on the way. Each visited
// record is pinned while the updater helps it (see help), so it cannot
// return to the pool — and therefore cannot be recycled into a different
// scan — under the helper. The newest-first order serves the deepest
// records of any help chain before the records that wait on them. seen is
// the update's dedup list across slots; walkSlot returns it extended.
func (o *LockFree[V]) walkSlot(s *slot[V], c int, cur *enrollment[V], op uint64, seen []seenRecord[V]) []seenRecord[V] {
	s.walks.Add(1)
	var prev *enrollment[V]
	for cur != nil {
		o.yield(sched.PreVisit, c)
		next := cur.next.Load()
		// Three-step liveness check: a quick stale glance, then a pin, then
		// a recheck under the pin (the record may have retired — or retired
		// AND recycled — between the glance and the pin; the pin only
		// proves the count never reached zero, not that the incarnation is
		// still the enrollment's).
		live := !cur.stale() && cur.rec.pin()
		if live && cur.stale() {
			o.releaseRef(cur.rec)
			live = false
		}
		if !live {
			o.yield(sched.PreUnlink, c)
			if prev != nil {
				prev.next.CompareAndSwap(cur, next)
			} else {
				s.head.CompareAndSwap(cur, next)
			}
			cur = next
			continue
		}
		s.visited.Add(1)
		seen = o.help(cur.rec, cur.gen, op, seen)
		o.releaseRef(cur.rec)
		prev = cur
		cur = next
	}
	return seen
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
