package snapshot

import (
	"sync/atomic"

	"partialsnapshot/internal/sched"
)

// This file is the scanner side of LockFree: scan records, announcement
// and retirement, and the PartialScan double-collect/adopt loop. The
// updater side that serves announced records lives in helping.go.

// scanRecord is one announcement: "somebody needs a consistent view of this
// component set". Level 0 records are posted by PartialScan; level k >= 1
// records are posted by the embedded scan of an updater helping a level-
// (k-1) record, so records form the help chains of the paper's recursive
// construction. A record is enrolled in the registry slot of every
// component in ids and carries no links of its own (see enrollment).
//
// Records are pooled and recycled (see pool.go): gen counts the record's
// incarnations so stale registry enrollments are detectable, and refs
// counts the owner plus every walker currently visiting, so the record
// returns to the pool only once nobody can still read it. Obtain records
// with acquireRecord, never with new — a zero-refs record is unpinnable
// and invisible to helpers.
type scanRecord[V any] struct {
	ids   []int // announced components, in the scanner's order
	level int   // help-chain depth of this record
	// uni is the universe the announcing operation pinned. Enrollment
	// addresses slots through it, and helpers collect — and chain their own
	// records — through it, so a whole help chain runs against one epoch's
	// shape. Cleared when the record is pooled, so a free record does not
	// pin a retired universe for the garbage collector.
	uni  *universe[V]
	help atomic.Pointer[helpView[V]]
	done atomic.Bool
	gen  atomic.Uint64 // incarnation count; enrollments capture it
	refs atomic.Int64  // owner + pinned walkers; 0 = poolable
}

// announce enrolls rec in the registry slot of each component it names.
func (o *LockFree[V]) announce(rec *scanRecord[V]) {
	o.reg.enroll(rec)
}

// retire marks rec completed and drops the owner's reference; the owner
// sweeps consecutive stale enrollments off its slots' heads (quiescent
// updates skip those slots, so retirement must drain them — see
// sweepStale), deeper ones are unlinked lazily by later walks and enrolls,
// and the record itself returns to the pool once the last pinned helper
// lets go. The sweep runs before any pooling path so rec.ids and rec.uni
// are still this incarnation's.
func (o *LockFree[V]) retire(rec *scanRecord[V]) {
	o.reg.retire(rec)
	o.reg.sweepStale(rec)
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

// ScanInfo describes how a partial scan completed.
type ScanInfo struct {
	// Adopted is true when the scan returned a view posted by a helping
	// updater rather than one of its own double collects.
	Adopted bool
	// HelperOp is the op id of the Update that posted the adopted view
	// (0 when Adopted is false).
	HelperOp uint64
	// Depth is the help-chain level of the clean double collect that
	// produced the returned view: 0 for the scan's own collect, k >= 1 when
	// the view came from a level-k embedded scan.
	Depth int
	// Retries counts this scan's failed double collects.
	Retries int
}

// PartialScan returns an atomic view of the named components: either a
// clean double collect (the exact memory state at an instant between the
// two collects) or a view posted by a helping updater (itself rooted in a
// clean double collect taken inside this scan's interval).
func (o *LockFree[V]) PartialScan(ids []int) ([]V, error) {
	vals, _, err := o.PartialScanInfo(ids)
	return vals, err
}

// PartialScanInfo is PartialScan, additionally reporting how the scan
// completed.
func (o *LockFree[V]) PartialScanInfo(ids []int) ([]V, ScanInfo, error) {
	// Pin once: validation, every collect and any announcement run against
	// this one epoch's shape. A resize installed after this load linearizes
	// after this scan (see epoch.go) — unless the scan's view straddles the
	// install, which the epoch recheck in scanPinned detects and discards.
	return o.scanPinned(o.pin(), ids, false)
}

// scanPinned runs a partial scan against the already-pinned universe u,
// rechecking after every completed view that no resize invalidated it.
//
// Pinning alone is not enough under Shrink: a scan pinned at epoch e reads
// e's register pointers, and a survivor's register is ALIASED by every
// later epoch, so a writer pinned at e+1 stores through the very cell the
// parked scan re-reads. A view that pairs a shrunk component's frozen cell
// with such a post-install write is stable under the double collect yet
// linearizes nowhere: not before the install (it contains a later write)
// and not after it (the shrunk id no longer exists). So after a view
// completes — by clean double collect or by adoption — the scan re-loads
// the universe pointer and keeps the view only if every named component
// still aliases the pinned epoch's register (see survives). Otherwise the
// view is discarded and the scan retakes under the current epoch; a named
// id the new epoch no longer holds then fails validation with
// ErrBadComponent, which is the answer the post-resize spec demands.
//
// One recheck after completion suffices: the view's collect (or the
// adopted view's, inside the scan's interval) finished before the re-load,
// so an install the re-load cannot see cannot have been observed by the
// view either. Termination: each retake is caused by a successful resize
// install, so the scan remains wait-free per epoch and lock-free under
// unbounded churn — the progress class of Grow/Shrink themselves.
func (o *LockFree[V]) scanPinned(u *universe[V], ids []int, full bool) ([]V, ScanInfo, error) {
	var info ScanInfo
	for {
		vals, err := o.collectPinned(u, ids, &info)
		if err != nil {
			return nil, info, err
		}
		o.yield(sched.PreEpochRecheck, int(u.epoch))
		if o.mut.skipEpochRecheck {
			// Test-only mutation seam: return the pre-fix view unchecked.
			return vals, info, nil
		}
		cur := o.uni.Load()
		if cur == u || survives(u, cur, ids) {
			return vals, info, nil
		}
		// A resize replaced at least one named component's register since
		// the pin: the view may mix epochs, discard and retake. The retaken
		// attempt starts from scratch — a discarded adoption must not leak
		// its provenance into the next view's info.
		o.shards[u.shard(ids)].viewsDiscarded.Add(1)
		info.Adopted, info.HelperOp, info.Depth = false, 0, 0
		u = cur
		if full {
			ids = u.all
		}
	}
}

// survives reports whether a view of the named components taken under
// pinned universe u is still a view of the current universe cur — i.e.
// every named id exists in cur and cur holds the same register pointer for
// it. Registers are aliased forward by every install that keeps the
// component and allocated fresh on regrow (never resurrected, and the
// collect's held pointers keep the GC from recycling them), so pointer
// equality proves the component was continuously aliased across all
// intermediate epochs: every cell the view observed is a cell of cur too,
// and the view linearizes after the last install exactly as a fresh scan
// of cur would. Any named id that fails the test (dropped, or dropped and
// regrown fresh) makes the whole view suspect — components dropped at
// different installs need not share any instant with the survivors' values
// — so the caller discards conservatively.
func survives[V any](u, cur *universe[V], ids []int) bool {
	for _, id := range ids {
		if id >= len(cur.regs) || cur.regs[id] != u.regs[id] {
			return false
		}
	}
	return true
}

// collectPinned is one attempt at a view, running entirely against the
// already-pinned universe u: validate, double collect, announce on
// obstruction, adopt posted help. The caller (scanPinned) owns the epoch
// recheck that decides whether the returned view survives.
func (o *LockFree[V]) collectPinned(u *universe[V], ids []int, info *ScanInfo) ([]V, error) {
	if err := validateIDs(len(u.regs), ids); err != nil {
		return nil, err
	}
	// Fast path: an uncontended scan needs no announcement, and its only
	// allocation is the result slice the caller keeps.
	if vals, ok := o.doubleCollect(u, ids, 0); ok {
		return vals, nil
	}
	o.scanRetries.Add(1)
	info.Retries++
	rec := o.acquireRecord(u, ids, 0)
	o.announce(rec)
	defer o.retire(rec)
	o.yield(sched.PostAnnounce, 0)
	for {
		if vals, ok := o.doubleCollect(u, rec.ids, 0); ok {
			return vals, nil
		}
		o.scanRetries.Add(1)
		info.Retries++
		// The collect was obstructed. Any update that wrote one of our
		// components after our enrollment in that component's slot posted
		// help first, so after finitely many failures an adoptable view is
		// waiting here (see embeddedScan for why the help itself always
		// completes).
		if h := rec.help.Load(); h != nil {
			o.yield(sched.PreAdopt, 0)
			o.helpsAdopted.Add(1)
			info.Adopted, info.HelperOp, info.Depth = true, h.by, h.depth
			return append([]V(nil), h.vals...), nil
		}
	}
}

// stackCollect is the widest component set whose double collect keeps its
// first collect in a stack array rather than a pooled buffer. Widths up to
// it cover every default scan width; the array is 128 bytes of stack.
const stackCollect = 16

// doubleCollect is one double collect of ids through universe u: load every
// named cell, yield at PostFirstCollect (arg = level), then re-load each
// cell and compare it in place with the first load. It returns the values
// of the first collect's cells and true when no cell changed — the memory
// state at an instant between the two collects — and false on the first
// changed cell. Cell identity, not value equality, is what rules out ABA:
// every write takes never-used slots from a 128 B run (see registers.go),
// and the held pointers keep the GC from recycling a run while the collect
// can still compare against one of its slots.
// Surviving components alias their cells across epochs, so a double collect
// through an old epoch still observes writes made through newer ones.
//
// Up to stackCollect ids, the first collect goes into a fixed array indexed
// directly, which the compiler keeps on the stack; wider sets borrow one
// pooled buffer. Either way the second collect stores nothing.
func (o *LockFree[V]) doubleCollect(u *universe[V], ids []int, level int) ([]V, bool) {
	regs := u.regs
	if len(ids) <= stackCollect {
		var first [stackCollect]*V
		for i, id := range ids {
			first[i] = regs[id].ptr.Load()
		}
		o.yield(sched.PostFirstCollect, level)
		for i, id := range ids {
			if regs[id].ptr.Load() != first[i] {
				return nil, false
			}
		}
		vals := make([]V, len(ids))
		for i := range vals {
			vals[i] = *first[i]
		}
		return vals, true
	}
	// No defer: it would cost the stack path above its bookkeeping too.
	buf := o.getBuf(len(ids))
	first := buf.cells
	for i, id := range ids {
		first[i] = regs[id].ptr.Load()
	}
	o.yield(sched.PostFirstCollect, level)
	for i, id := range ids {
		if regs[id].ptr.Load() != first[i] {
			o.putBuf(buf)
			return nil, false
		}
	}
	vals := make([]V, len(ids))
	for i, p := range first {
		vals[i] = *p
	}
	o.putBuf(buf)
	return vals, true
}

// Scan is PartialScan over every component. It pins the epoch once and
// scans that epoch's full component set, so a concurrent resize can neither
// tear the id set nor fail validation under it; a view invalidated by a
// mid-scan resize is discarded and the scan retakes over the new epoch's
// full set (scanPinned re-resolves ids on each retake).
func (o *LockFree[V]) Scan() ([]V, error) {
	u := o.pin()
	vals, _, err := o.scanPinned(u, u.all, true)
	return vals, err
}
