package snapshot

import (
	"sync/atomic"

	"partialsnapshot/internal/sched"
)

// This file is the scanner side of LockFree: scan records and the
// PartialScan double-collect/adopt loop. Announcement and retirement live
// in registry.go; the updater side that serves announced records lives in
// helping.go.

// scanRecord is one announcement: "somebody needs a consistent view of this
// component set". Level 0 records are posted by PartialScan; level k >= 1
// records are posted by the embedded scan of an updater helping a level-
// (k-1) record, so records form the help chains of the paper's recursive
// construction. A record is enrolled in the registry slot of every
// component in ids and carries no links of its own (see enrollment).
//
// A record is immutable once built, except for its help and done atomics,
// and it is never reused: every announcement allocates a fresh one with
// newRecord, and the garbage collector frees it once no enrollment, walker
// or help chain can reach it. A stale path to a record therefore always
// leads to that same record, now retired, which is what lets walkers
// judge an enrollment by its record's done flag alone.
type scanRecord[V any] struct {
	ids   []int // announced components, in the scanner's order
	level int   // help-chain depth of this record
	// uni is the universe the announcing operation pinned. Enrollment
	// addresses slots through it, and helpers collect — and chain their own
	// records — through it, so a whole help chain runs against one epoch's
	// shape.
	uni  *universe[V]
	help atomic.Pointer[helpView[V]]
	done atomic.Bool
}

// newRecord returns a live record announcing ids at the given help level,
// pinned to universe u. The record keeps ids as given, so the caller must
// pass a slice nobody will write again: a scanner copies its caller's ids,
// an embedded scan passes its target's ids, which never change.
func newRecord[V any](u *universe[V], ids []int, level int) *scanRecord[V] {
	return &scanRecord[V]{ids: ids, level: level, uni: u}
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
	// this one epoch's shape. Every later epoch aliases the named registers,
	// so the view needs no check against a resize (see epoch.go).
	return o.collectPinned(o.pin(), ids)
}

// collectPinned is a partial scan running entirely against the
// already-pinned universe u: validate, double collect, announce on
// obstruction, adopt posted help.
func (o *LockFree[V]) collectPinned(u *universe[V], ids []int) (_ []V, info ScanInfo, _ error) {
	if err := validateIDs(len(u.regs), ids); err != nil {
		return nil, info, err
	}
	// Fast path: an uncontended scan needs no announcement, and its only
	// allocation is the result slice the caller keeps.
	if vals, ok := o.doubleCollect(u, ids, 0); ok {
		return vals, info, nil
	}
	o.scanRetries.Add(1)
	info.Retries++
	// The record outlives this call in any enrollment a walk has not yet
	// unlinked, and callers may reuse ids (the server pools its id slices),
	// so the record takes its own copy.
	rec := newRecord(u, append([]int(nil), ids...), 0)
	o.announce(rec)
	defer o.retire(rec)
	o.yield(sched.PostAnnounce, 0)
	for {
		if vals, ok := o.doubleCollect(u, rec.ids, 0); ok {
			return vals, info, nil
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
			return append([]V(nil), h.vals...), info, nil
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
// Every epoch aliases its predecessors' cells, so a double collect through
// an old epoch still observes writes made through newer ones.
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

// Scan is PartialScan over every component of the epoch it pins, so a
// concurrent Grow can neither tear the id set nor fail validation under it.
func (o *LockFree[V]) Scan() ([]V, error) {
	u := o.pin()
	vals, _, err := o.collectPinned(u, u.all)
	return vals, err
}
