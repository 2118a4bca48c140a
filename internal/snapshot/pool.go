package snapshot

import (
	"sync"

	"partialsnapshot/internal/sched"
)

// This file is the allocation recycling layer of LockFree. The hot paths
// used to allocate a fresh scan record plus two collect buffers on every
// operation that needed them; in steady state all of those now come from
// pools (or, for scans up to stackCollect components wide, the stack). What
// is left is the result slice a scan's caller keeps, and a share of the
// 128 B run of never-used slots each write takes its values from (see
// takeCells in registers.go; only a run's cursor is recycled).
//
// Two kinds of state are pooled, with very different hazard profiles:
//
//   - Collect buffers (scanBuffer) are touched only by the goroutine that
//     got them and are returned the moment the operation ends. They carry
//     no identity, so reuse is invisible; a plain sync.Pool is enough.
//
//   - Scan records are shared: once announced, a record is reachable
//     through registry enrollments by every updater that walks an
//     intersecting slot, and helpers keep using it after the owning scan
//     returned. A record may therefore return to the pool only once no
//     helper can still read it, and a recycled record must be
//     indistinguishable from a freshly allocated one to every walker that
//     still holds a stale path to it — reuse is exactly the ABA shape the
//     paper's announcement protocol has to tolerate. Two mechanisms close
//     it (see scanRecord in scan.go for the fields):
//
//     Pinning. rec.refs counts the owner (1, from acquisition to
//     retirement) plus every walker currently visiting the record. A
//     walker pins before visiting (pin fails once refs hit zero) and
//     unpins after; whoever drops refs to zero — owner or last helper —
//     puts the record back. While a helper is pinned the record cannot
//     recycle, so the help CAS it eventually performs lands on the same
//     incarnation it collected for, never on a later scan's record.
//
//     Generation tags. rec.gen increments on every acquisition, and each
//     registry enrollment captures the generation it was created for. A
//     walker that reaches a record through a leftover enrollment of a
//     previous life sees a generation mismatch and unlinks it exactly like
//     a retired one — the finitely-many stale paths the termination
//     argument already tolerates — instead of helping the new incarnation
//     through a slot it never announced. The updater-walk dedup list
//     compares (pointer, generation) pairs for the same reason: a record
//     retired and re-announced inside a single multi-slot walk is a new
//     obligation, not a duplicate.
//
// Registry enrollment nodes are NOT pooled: walkers traverse their next
// pointers after the nodes are unlinked, so recycling them would let a
// walk jump between incarnations of a slot list. They are slow-path-only
// allocations and stay garbage collected.

// scanBuffer is one goroutine's first-collect target for a double collect
// wider than stackCollect. It grows to the widest scan it has served and
// is only ever touched by the goroutine that got it from the pool.
type scanBuffer[V any] struct {
	cells []*V
}

// getBuf returns a collect buffer of length n, reusing a pooled one when
// one is available.
func (o *LockFree[V]) getBuf(n int) *scanBuffer[V] {
	sb, _ := o.bufs.Get().(*scanBuffer[V])
	if sb == nil {
		sb = &scanBuffer[V]{}
	}
	if cap(sb.cells) < n {
		sb.cells = make([]*V, n)
	}
	sb.cells = sb.cells[:n]
	return sb
}

func (o *LockFree[V]) putBuf(sb *scanBuffer[V]) { o.bufs.Put(sb) }

// recordPool is where scan records are recycled. Production objects use
// the sync.Pool-backed sharedRecordPool (per-P caches, GC-aware);
// Instrument swaps in a scriptedRecordPool, a deterministic LIFO, so that
// pool hits and misses — and with them the PreReuse yield points — are a
// pure function of the explored schedule and every trace replays.
type recordPool[V any] interface {
	// get returns a previously released record, or nil when the pool is
	// empty and the caller should allocate.
	get() *scanRecord[V]
	put(*scanRecord[V])
}

type sharedRecordPool[V any] struct{ p sync.Pool }

func (s *sharedRecordPool[V]) get() *scanRecord[V] {
	rec, _ := s.p.Get().(*scanRecord[V])
	return rec
}

func (s *sharedRecordPool[V]) put(rec *scanRecord[V]) { s.p.Put(rec) }

// scriptedRecordPool is the deterministic freelist used under schedule
// injection: strict LIFO, guarded by a mutex (instrumented goroutines are
// serialised between yield points, so the lock is never contended and adds
// no schedule nondeterminism of its own).
type scriptedRecordPool[V any] struct {
	mu   sync.Mutex
	free []*scanRecord[V]
}

func (s *scriptedRecordPool[V]) get() *scanRecord[V] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		rec := s.free[n-1]
		s.free = s.free[:n-1]
		return rec
	}
	return nil
}

func (s *scriptedRecordPool[V]) put(rec *scanRecord[V]) {
	s.mu.Lock()
	s.free = append(s.free, rec)
	s.mu.Unlock()
}

func (s *scriptedRecordPool[V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}

// acquireRecord returns a live record announcing ids at the given help
// level, pinned to universe u, recycled from the pool when possible. Field
// reset order is part of the reuse protocol: the generation bump comes
// first, so every stale enrollment is invalidated before the done flag,
// the id set and the universe change under it, and the pin count is
// published last, so the record only becomes pinnable once fully
// initialised (the refs store is the release/acquire edge walkers
// synchronise on).
func (o *LockFree[V]) acquireRecord(u *universe[V], ids []int, level int) *scanRecord[V] {
	rec := o.records.get()
	if rec == nil {
		rec = &scanRecord[V]{}
	} else {
		o.recReuses.Add(1)
		o.yield(sched.PreReuse, level)
	}
	rec.gen.Add(1)
	rec.help.Store(nil)
	rec.done.Store(false)
	rec.ids = append(rec.ids[:0], ids...)
	rec.level = level
	rec.uni = u
	rec.refs.Store(1)
	return rec
}

// releaseRef drops one reference to rec; whoever drops the last one —
// retiring owner or lingering helper — returns the record to the pool,
// first dropping the record's universe reference so a pooled record does
// not keep a retired epoch alive for the garbage collector (safe: a
// zero-refs record is unpinnable, so nobody can still read rec.uni).
// Under the unsafeEagerRelease mutation seam, retire pools directly and
// stomps the count, so releases must never pool (a helper releasing after
// the record was recycled would re-pool a live record).
func (o *LockFree[V]) releaseRef(rec *scanRecord[V]) {
	if rec.refs.Add(-1) == 0 && !o.mut.unsafeEagerRelease {
		rec.uni = nil
		o.records.put(rec)
	}
}

// pin takes a reference to rec on behalf of a walker, failing once the
// count has reached zero (the record is retired and pooled, or mid-reset
// for its next life). A successful pin keeps the record out of the pool
// until the matching releaseRef. The CAS loop retries only when another
// pin or release moved the count concurrently, so its retries are bounded by
// the number of concurrent walkers of the record — bounded helping
// traffic, not unbounded spinning.
func (rec *scanRecord[V]) pin() bool {
	for {
		n := rec.refs.Load()
		if n <= 0 {
			return false
		}
		if rec.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}
