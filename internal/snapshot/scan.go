package snapshot

import (
	"sync/atomic"

	"partialsnapshot/internal/sched"
)

// This file is the scanner side of LockFree: scan records and the
// AppendScan double-collect/adopt loop. Announcement and retirement live
// in registry.go; the updater side that serves announced records lives in
// helping.go.

// scanRecord is one announcement: "somebody needs a consistent view of this
// component set". Level 0 records are posted by AppendScan; level k >= 1
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
	help  atomic.Pointer[helpView[V]]
	done  atomic.Bool
}

// newRecord returns a live record announcing ids at the given help level.
// The record keeps ids as given, so the caller must pass a slice nobody
// will write again: a scanner copies its caller's ids, an embedded scan
// passes its target's ids, which never change.
func newRecord[V any](ids []int, level int) *scanRecord[V] {
	return &scanRecord[V]{ids: ids, level: level}
}

// ScanInfo describes how a partial scan completed.
type ScanInfo struct {
	// Adopted is true when the scan returned a view posted by a helping
	// updater rather than one of its own double collects.
	Adopted bool
	// Depth is the help-chain level of the clean double collect that
	// produced the returned view: 0 for the scan's own collect, k >= 1 when
	// the view came from a level-k embedded scan.
	Depth int
	// Retries counts this scan's failed double collects.
	Retries int
}

// AppendScan appends to dst an atomic view of the named components: a
// clean double collect (the exact memory state at an instant between the
// two collects) or a copy of a view posted by a helping updater (itself
// rooted in a clean double collect taken inside this scan's interval).
func (o *LockFree[V]) AppendScan(dst []V, ids []int) ([]V, error) {
	dst, _, err := o.appendScanInfo(dst, ids)
	return dst, err
}

// PartialScan is AppendScan into a new slice.
func (o *LockFree[V]) PartialScan(ids []int) ([]V, error) { return o.AppendScan(nil, ids) }

// appendScanInfo is AppendScan's one path, reporting how the scan
// completed: validate, double collect, announce on obstruction, adopt
// posted help.
func (o *LockFree[V]) appendScanInfo(dst []V, ids []int) (_ []V, info ScanInfo, _ error) {
	if err := validateIDs(len(o.regs), ids); err != nil {
		return dst, info, err
	}
	// Fast path: an uncontended scan needs no announcement, and allocates
	// only if dst has no room for the view.
	if out, ok := o.doubleCollect(dst, ids, 0); ok {
		return out, info, nil
	}
	o.scanRetries.Add(1)
	info.Retries++
	// The record outlives this call in any enrollment a walk has not yet
	// unlinked, and callers may reuse ids (the server pools its id slices),
	// so the record takes its own copy.
	rec := newRecord[V](append([]int(nil), ids...), 0)
	o.announce(rec)
	defer o.retire(rec)
	o.yield(sched.PostAnnounce, 0)
	for {
		if out, ok := o.doubleCollect(dst, rec.ids, 0); ok {
			return out, info, nil
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
			info.Adopted, info.Depth = true, h.depth
			return append(dst, h.vals...), info, nil
		}
	}
}

// stackCollect is the widest component set whose double collect keeps its
// first collect in a stack array rather than a pooled buffer. Widths up to
// it cover every default scan width; the array is 128 bytes of stack.
const stackCollect = 16

// doubleCollect is one double collect of ids: load every
// named cell, yield at PostFirstCollect (arg = level), then re-load each
// cell and compare it in place with the first load. When no cell changed
// it appends the first collect's values to dst — the memory state at an
// instant between the two collects — and returns it with true; otherwise
// it returns dst as given and false. Cell identity, not value equality,
// rules out ABA: every write takes never-used slots from a 128 B run (see
// registers.go), and the held pointers keep the GC from recycling a run
// while the collect can still compare against one of its slots.
//
// Up to stackCollect ids, the first collect goes into a fixed array indexed
// directly, which the compiler keeps on the stack; wider sets borrow one
// pooled buffer. Either way the second collect stores nothing, and dst
// grows at most once.
func (o *LockFree[V]) doubleCollect(dst []V, ids []int, level int) ([]V, bool) {
	regs := o.regs
	if len(ids) <= stackCollect {
		var first [stackCollect]*V
		for i, id := range ids {
			first[i] = regs[id].ptr.Load()
		}
		o.yield(sched.PostFirstCollect, level)
		for i, id := range ids {
			if regs[id].ptr.Load() != first[i] {
				return dst, false
			}
		}
		return appendCells(dst, first[:len(ids)]), true
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
			return dst, false
		}
	}
	dst = appendCells(dst, first)
	o.putBuf(buf)
	return dst, true
}

// appendCells appends the values cells point to, growing dst at most once,
// to exactly the room they need, as make would: slices.Grow's growslice
// costs a nil-dst scan about 8 ns more on a 2-vCPU x86-64 host.
func appendCells[V any](dst []V, cells []*V) []V {
	if cap(dst)-len(dst) < len(cells) {
		dst = append(make([]V, 0, len(dst)+len(cells)), dst...)
	}
	for _, p := range cells {
		dst = append(dst, *p)
	}
	return dst
}

// Scan is PartialScan over every component.
func (o *LockFree[V]) Scan() ([]V, error) { return o.AppendScan(nil, o.all) }
