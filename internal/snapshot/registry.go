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
// reader that reaches a record through a stale slot never helps it. Unlink
// CASes can lose to each other or briefly resurrect an already-unlinked
// retired enrollment; both are harmless because only retired enrollments
// are ever unlinked and retired records are never visited.
//
// Records are never reused (see scanRecord), so a retired record stays
// retired and the done flag is the whole staleness test. Nor are
// enrollment nodes: walkers read the next pointers of nodes already
// unlinked. The price is retention: a stale enrollment still linked in some
// slot keeps its retired record alive, and through rec.uni a superseded
// universe's pointer slices (24 B per component), until a walk, an
// enrollment or a retirement sweep unlinks it. Those unlinks are what
// bound it: every slot drains back to empty once its scans retire and an
// update or sweep passes over it, which TestAnnouncementRegistryHygiene
// and the unlink tests pin.

// enrollment links one scan record into one registry slot. A record
// enrolled in k slots owns k enrollment nodes, each with its own next
// pointer.
type enrollment[V any] struct {
	rec  *scanRecord[V]
	next atomic.Pointer[enrollment[V]]
}

// stale reports whether e's record no longer needs this enrollment: its
// scan completed.
func (e *enrollment[V]) stale() bool { return e.rec.done.Load() }

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
	for _, c := range rec.ids {
		e := &enrollment[V]{rec: rec}
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

// retire marks rec completed and sweeps its stale enrollments off its
// slots' heads; deeper enrollments are unlinked lazily by later walks and
// announces.
func (o *LockFree[V]) retire(rec *scanRecord[V]) {
	rec.done.Store(true)
	o.live.Add(-1)
	o.sweepStale(rec)
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
// newest enrollment first, unlinking the retired records' enrollments it
// passes. The newest-first order serves the deepest records of any help
// chain before the records that wait on them. seen is the update's dedup
// list across slots; walkSlot returns it extended.
func (o *LockFree[V]) walkSlot(s *slot[V], c int, cur *enrollment[V], op uint64, seen []*scanRecord[V]) []*scanRecord[V] {
	s.walks.Add(1)
	var prev *enrollment[V]
	for cur != nil {
		o.yield(sched.PreVisit, c)
		next := cur.next.Load()
		if cur.stale() {
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
		seen = o.help(cur.rec, op, seen)
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
