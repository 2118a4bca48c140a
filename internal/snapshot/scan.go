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
// completed (with an optimistic budget, ScanInfo.Retries also counts torn
// optimistic attempts).
func (o *LockFree[V]) PartialScanInfo(ids []int) ([]V, ScanInfo, error) {
	if o.attempts > 0 {
		return o.optimistic(ids, false)
	}
	// Pin once: validation, every collect and any announcement run against
	// this one epoch's shape. A resize installed after this load linearizes
	// after this scan (see epoch.go) — unless the scan's view straddles the
	// install, which the epoch recheck in scanPinned detects and discards.
	return o.scanPinned(o.pin(), ids, false, ScanInfo{})
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
// view either. This is the same argument as the optimistic pass's
// validation (see optimistic), ported to the wait-free path. Termination:
// each retake is caused by a successful resize install, so the scan
// remains wait-free per epoch and lock-free under unbounded churn — the
// progress class of Grow/Shrink themselves.
//
// info carries in what the scan already spent (torn optimistic attempts)
// and comes back with the slow path's retries and provenance added.
func (o *LockFree[V]) scanPinned(u *universe[V], ids []int, full bool, info ScanInfo) ([]V, ScanInfo, error) {
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
	bufs := o.getBufs(len(ids))
	defer o.putBufs(bufs)
	a, b := bufs.a, bufs.b
	// Fast path: an uncontended scan needs no announcement, and with the
	// pooled buffers its only allocation is the result slice the caller
	// keeps.
	u.collect(ids, a)
	o.yield(sched.PostFirstCollect, 0)
	u.collect(ids, b)
	if sameCells(a, b) {
		return cellVals(b), nil
	}
	o.scanRetries.Add(1)
	info.Retries++
	rec := o.acquireRecord(u, ids, 0)
	o.announce(rec)
	defer o.retire(rec)
	o.yield(sched.PostAnnounce, 0)
	for {
		u.collect(rec.ids, a)
		o.yield(sched.PostFirstCollect, 0)
		u.collect(rec.ids, b)
		if sameCells(a, b) {
			return cellVals(b), nil
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

// Scan is PartialScan over every component. It pins the epoch once and
// scans that epoch's full component set, so a concurrent resize can neither
// tear the id set nor fail validation under it; a view invalidated by a
// mid-scan resize is discarded and the scan retakes over the new epoch's
// full set (scanPinned re-resolves ids on each retake).
func (o *LockFree[V]) Scan() ([]V, error) {
	if o.attempts > 0 {
		vals, _, err := o.optimistic(nil, true)
		return vals, err
	}
	u := o.pin()
	vals, _, err := o.scanPinned(u, u.all, true, ScanInfo{})
	return vals, err
}

// stampInflight masks the writers-in-flight half of a register's stamp;
// stampRetire is the single add that retires a writer and advances the
// version.
const (
	stampInflight = 1<<32 - 1
	stampRetire   = 1<<32 - 1
)

// optimistic is the scan of an object with a positive budget: up to
// o.attempts seqlock-style passes over ids, then the wait-free slow path.
// An uncontended pass is k ordered stamp+cell loads plus one validation
// re-read of the stamps — no announcement, no double collect, zero
// registry traffic. When full is true the id set is resolved per attempt
// from the pinned universe.
//
// The write protocol (UpdateOp, with a positive budget) brackets every
// cell store with two atomic adds on the component's stamp: +1 before the
// store marks a writer in flight, +(1<<32 - 1) after it retires the writer
// and advances the version in the high half. This is the multi-writer
// generalisation of the classic "even = stable, odd = write in progress"
// seqlock: with a single writer the low half toggles 0↔1 exactly like the
// classic parity bit, and with concurrent writers the low half is the
// count of writers mid-store, so "stable" is low == 0 rather than "even".
// The classic parity trick alone would be unsound here — two writers'
// pre-store increments can make a bare counter even again while both
// stores are still pending.
//
// Why a validated optimistic read is atomic: the reader loads each stamp
// (rejecting the attempt unless the writers-in-flight half is zero), loads
// the cell value, and after the last load re-reads every stamp. Both adds
// of the write protocol are positive, so each stamp is strictly monotone,
// and the validation pass therefore only needs to compare the SUMS of the
// two stamp passes: any stamp that moved strictly increases the sum, so
// equal sums mean every individual stamp is unchanged (a sum wrap mod 2^64
// would take ~2^32 completed writes inside one scan attempt — the same
// order of magnitude as the classic seqlock's own version-wrap
// assumption). An unchanged stamp means no adds happened between its two
// loads; any store to the component inside that window would imply the
// writer's pre-store add also lay inside the window (the in-flight half
// was zero at both reads), which is impossible — hence every cell value
// read is the component's value for the entire window between the
// reader's first pass and its validation pass, and the scan linearizes at
// the boundary between the two (its "last load"; see PAPER.md).
//
// Epochs: each optimistic attempt pins the universe afresh, and validation
// additionally demands the object's universe pointer is still the pinned
// one. Universes are fresh allocations, so pointer equality means no
// resize was installed since the pin — the attempt ran entirely within one
// epoch and cannot have combined a retired epoch's stale cell with a live
// write (the mixed-epoch torn view the mutation test convicts when the
// validation seam is disabled). The escalated path applies the refined
// per-component version of the same rule in scanPinned: a slow-path view
// survives a mid-scan install iff every named component still aliases the
// pinned epoch's register (a pure Grow over the named set passes; a Shrink
// touching it discards and retakes, counted by Stats.ViewsDiscarded), so
// each retake is caused by a successful resize install — lock-free under
// epoch churn, wait-free per epoch, the same progress class as Grow and
// Shrink themselves.
func (o *LockFree[V]) optimistic(ids []int, full bool) ([]V, ScanInfo, error) {
	var info ScanInfo
	var vals []V             // the result slice, reused across attempts
	var checked *universe[V] // last universe ids was validated against
	for attempt := 0; attempt < o.attempts; attempt++ {
		// Pin per attempt: the previous attempt may have been torn by a
		// resize, and re-pinning keeps this attempt — reads, validation and
		// a possible rejection — within a single epoch.
		u := o.pin()
		if full {
			ids = u.all
		} else if u != checked {
			if err := validateIDs(len(u.regs), ids); err != nil {
				// Rejection linearizes at the pin, where ids does not fit
				// the installed shape (see ErrBadComponent on resizing).
				return nil, info, err
			}
			checked = u
		}
		// Values are read straight into the result slice the caller keeps —
		// the uncontended scan's single allocation. A torn attempt reuses
		// it; only a full scan racing a resize ever reallocates.
		if len(vals) != len(ids) {
			vals = make([]V, len(ids))
		}
		regs := u.regs
		var sum uint64
		torn := false
		for i, id := range ids {
			o.yield(sched.PreSeqRead, id)
			r := regs[id]
			s := r.stamp.Load()
			if s&stampInflight != 0 {
				// A writer is mid-store: the cell may change under us, so
				// the whole attempt is already lost. Abort rather than
				// spin — waiting on the stamp would forfeit wait-freedom.
				torn = true
				break
			}
			sum += s
			vals[i] = r.ptr.Load().val
		}
		if !torn {
			o.yield(sched.PreValidate, attempt)
			if o.mut.skipValidation {
				o.optimisticScans.Add(1)
				return vals, info, nil
			}
			// Validation. The epoch check first: pointer equality with the
			// pinned universe means no resize was installed since the pin,
			// so none of the cells read above belong to a retired epoch.
			// Then the stamps: an unchanged monotone sum means no write
			// touched any named component between the first pass and this
			// one (see above for the proof), so the values coexist at every
			// instant in that window — the scan linearizes at its boundary.
			if o.uni.Load() == u {
				var resum uint64
				for _, id := range ids {
					resum += regs[id].stamp.Load()
				}
				if sum == resum {
					o.optimisticScans.Add(1)
					return vals, info, nil
				}
			}
		}
		o.tornReads.Add(1)
		info.Retries++
	}
	o.yield(sched.PreEscalate, o.attempts)
	o.escalations.Add(1)
	// The wait-free slow path: pin, announce, double collect, adopt posted
	// help. It allocates its own result, so a scan that burned its budget
	// first pays one extra result-sized allocation — the price of losing
	// the optimistic bet, not of the steady state. scanPinned carries its
	// own mixed-epoch defence (the per-component epoch recheck), so a view
	// whose named components were replaced by a mid-scan resize is
	// discarded and retaken inside the call, counted by
	// Stats.ViewsDiscarded rather than TornReads.
	u := o.pin()
	if full {
		ids = u.all
	}
	return o.scanPinned(u, ids, full, info)
}
