package snapshot

import (
	"sync/atomic"

	"partialsnapshot/internal/sched"
)

// Versioned is the optimistic third implementation: LockFree's registers,
// registry and wait-free helping protocol, fronted by a seqlock-style fast
// path. An uncontended PartialScan is k ordered stamp+cell loads plus one
// validation re-read of the stamps — no announcement, no double collect,
// zero registry traffic — and only after maxOptimisticAttempts torn
// attempts does the scan escalate to the full announce-and-help slow path
// (scan.go), whose pooled records and termination argument it reuses
// unchanged.
//
// The write protocol (UpdateOp below) brackets every cell store with two
// atomic adds on the component's stamp: +1 before the store marks a writer
// in flight, +(1<<32 - 1) after it retires the writer and advances the
// version in the high half. This is the multi-writer generalisation of the
// classic "even = stable, odd = write in progress" seqlock: with a single
// writer the low half toggles 0↔1 exactly like the classic parity bit,
// and with concurrent writers the low half is the count of writers mid-
// store, so "stable" is low == 0 rather than "even". The classic parity
// trick alone would be unsound here — two writers' pre-store increments
// can make a bare counter even again while both stores are still pending.
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
// validation seam is disabled). The escalated path inherits the refined
// per-component version of the same rule from LockFree's scanPinned: a
// slow-path view survives a mid-scan install iff every named component
// still aliases the pinned epoch's register (a pure Grow over the named
// set passes; a Shrink touching it discards and retakes, counted by
// Stats.ViewsDiscarded), so each retake is caused by a successful resize
// install — lock-free under epoch churn, wait-free per epoch, the same
// progress class as Grow and Shrink themselves.
type Versioned[V any] struct {
	lf *LockFree[V]

	// maxAttempts is the escalation knob (see WithOptimisticAttempts):
	// how many torn optimistic attempts a scan tolerates before falling
	// back to the wait-free helping protocol.
	maxAttempts int

	// skipValidation, when true, makes the optimistic scan return its first
	// complete pass without the validation re-read — the torn-read bug the
	// seqlock stamps exist to prevent. It exists ONLY as a mutation seam
	// for the model-checking tests, which assert the DFS searcher convicts
	// the resulting mixed-epoch views; production objects always leave it
	// false.
	skipValidation bool

	optimisticScans atomic.Uint64
	escalations     atomic.Uint64
	tornReads       atomic.Uint64
}

// defaultOptimisticAttempts is the default escalation budget: enough to
// ride out a short burst of interfering writes, small enough that a truly
// contended scan reaches the wait-free path after a constant amount of
// wasted work.
const defaultOptimisticAttempts = 3

// stampInflight masks the writers-in-flight half of a stamp; stampRetire
// is the single add that retires a writer and advances the version.
const (
	stampInflight = 1<<32 - 1
	stampRetire   = 1<<32 - 1
)

// NewVersioned returns an optimistic partial snapshot object with n
// components, each initialised to the zero value of V.
func NewVersioned[V any](n int) *Versioned[V] {
	return &Versioned[V]{lf: NewLockFree[V](n), maxAttempts: defaultOptimisticAttempts}
}

// WithOptimisticAttempts sets the escalation knob — the number of torn
// optimistic attempts a scan tolerates before escalating to the wait-free
// helping protocol — and returns o for chaining. n <= 0 escalates
// immediately (every scan takes the slow path; used by tests to pin the
// escalated path's budgets). Call before the object is shared.
func (o *Versioned[V]) WithOptimisticAttempts(n int) *Versioned[V] {
	o.maxAttempts = n
	return o
}

// Instrument installs a schedule-injection scheduler on the underlying
// object (see LockFree.Instrument) and returns o for chaining.
func (o *Versioned[V]) Instrument(s sched.Scheduler) *Versioned[V] {
	o.lf.Instrument(s)
	return o
}

// Components returns the component count of the currently installed epoch.
func (o *Versioned[V]) Components() int { return o.lf.Components() }

// Epoch returns the current universe's epoch number.
func (o *Versioned[V]) Epoch() uint64 { return o.lf.Epoch() }

// Grow appends k fresh zero-valued components; see LockFree.Grow. The
// install is what in-flight optimistic attempts detect as a torn read.
func (o *Versioned[V]) Grow(k int) (int, error) { return o.lf.Grow(k) }

// Shrink removes the k highest-numbered components; see LockFree.Shrink.
func (o *Versioned[V]) Shrink(k int) (int, error) { return o.lf.Shrink(k) }

// SlotStats reports the registry activity of component c's slot; see
// LockFree.SlotStats. Only escalated scans enroll, so under an uncontended
// workload every slot stays silent.
func (o *Versioned[V]) SlotStats(c int) (walks, visited uint64) { return o.lf.SlotStats(c) }

// Stats returns the underlying object's counters plus the seqlock gauges.
func (o *Versioned[V]) Stats() Stats {
	st := o.lf.Stats()
	st.OptimisticScans = o.optimisticScans.Load()
	st.Escalations = o.escalations.Load()
	st.TornReads = o.tornReads.Load()
	return st
}

// Update writes vals[i] into component ids[i]; see LockFree.Update for
// batch semantics. Identical to the LockFree write path except that every
// cell store is bracketed by the two stamp adds of the seqlock protocol
// (see the type comment), so optimistic readers can detect it.
func (o *Versioned[V]) Update(ids []int, vals []V) error {
	_, err := o.UpdateOp(ids, vals)
	return err
}

// UpdateOp is Update, additionally returning the unique operation id this
// update drew (see LockFree.UpdateOp).
func (o *Versioned[V]) UpdateOp(ids []int, vals []V) (uint64, error) {
	lf := o.lf
	u := lf.pin()
	if err := validateArgs(len(u.regs), ids, vals); err != nil {
		return 0, err
	}
	op := lf.nextOp(u, ids)
	lf.helpIntersectingScans(u, ids, op)
	batch := make([]cell[V], len(ids))
	for i, id := range ids {
		batch[i] = cell[V]{val: vals[i]}
		r := u.regs[id]
		r.stamp.Add(1) // writer in flight: readers refuse the component
		lf.yield(sched.PreCellStore, id)
		r.ptr.Store(&batch[i])
		r.stamp.Add(stampRetire) // retire the writer, advance the version
	}
	return op, nil
}

// PartialScan returns an atomic view of the named components: a validated
// optimistic read when nobody interferes, a wait-free announced scan
// otherwise.
func (o *Versioned[V]) PartialScan(ids []int) ([]V, error) {
	vals, _, err := o.PartialScanInfo(ids)
	return vals, err
}

// PartialScanInfo is PartialScan, additionally reporting how the scan
// completed (ScanInfo.Retries counts torn optimistic attempts as well as
// slow-path double-collect failures).
func (o *Versioned[V]) PartialScanInfo(ids []int) ([]V, ScanInfo, error) {
	return o.scanVersioned(ids, false)
}

// Scan is PartialScan over every component of the pinned epoch. Like the
// LockFree Scan it can neither tear the id set nor fail validation on ids
// — each attempt reads exactly its own pinned universe's component set.
func (o *Versioned[V]) Scan() ([]V, error) {
	vals, _, err := o.scanVersioned(nil, true)
	return vals, err
}

// scanVersioned is the body of PartialScanInfo and Scan: optimistic
// attempts first, the wait-free slow path after the budget is spent. When
// full is true the id set is resolved per attempt from the pinned
// universe.
func (o *Versioned[V]) scanVersioned(ids []int, full bool) ([]V, ScanInfo, error) {
	lf := o.lf
	var info ScanInfo
	var vals []V             // the result slice, reused across attempts
	var checked *universe[V] // last universe ids was validated against
	for attempt := 0; attempt < o.maxAttempts; attempt++ {
		// Pin per attempt: the previous attempt may have been torn by a
		// resize, and re-pinning keeps this attempt — reads, validation and
		// a possible rejection — within a single epoch.
		u := lf.pin()
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
		if lf.sched == nil {
			// Production loop: identical reads to the instrumented loop
			// below, without the per-component yield call — the optimistic
			// pass is this loop's k stamp+cell load pairs and nothing else.
			for i, id := range ids {
				r := regs[id]
				s := r.stamp.Load()
				if s&stampInflight != 0 {
					torn = true
					break
				}
				sum += s
				vals[i] = r.ptr.Load().val
			}
		} else {
			for i, id := range ids {
				lf.yield(sched.PreSeqRead, id)
				r := regs[id]
				s := r.stamp.Load()
				if s&stampInflight != 0 {
					// A writer is mid-store: the cell may change under us,
					// so the whole attempt is already lost. Abort rather
					// than spin — waiting on the stamp would forfeit
					// wait-freedom.
					torn = true
					break
				}
				sum += s
				vals[i] = r.ptr.Load().val
			}
		}
		if !torn {
			lf.yield(sched.PreValidate, attempt)
			if o.skipValidation {
				o.optimisticScans.Add(1)
				return vals, info, nil
			}
			// Validation. The epoch check first: pointer equality with the
			// pinned universe means no resize was installed since the pin,
			// so none of the cells read above belong to a retired epoch.
			// Then the stamps: an unchanged monotone sum means no write
			// touched any named component between the first pass and this
			// one (see the type comment for the proof), so the values
			// coexist at every instant in that window — the scan
			// linearizes at its boundary.
			if lf.uni.Load() == u {
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
	lf.yield(sched.PreEscalate, o.maxAttempts)
	o.escalations.Add(1)
	// The wait-free slow path, inherited unchanged from LockFree: pin,
	// announce, double collect, adopt posted help. It allocates its own
	// result, so a scan that burned a positive optimistic budget first
	// pays one extra result-sized allocation — the price of losing the
	// optimistic bet, not of the steady state (a zero budget goes
	// straight here at exactly the LockFree cost). scanPinned carries its
	// own mixed-epoch defence now (the per-component epoch recheck; see
	// scan.go), so a view whose named components were replaced by a
	// mid-scan resize is discarded and retaken inside the call, counted by
	// Stats.ViewsDiscarded rather than TornReads.
	u := lf.pin()
	if full {
		ids = u.all
	}
	vals, esc, err := lf.scanPinned(u, ids, full)
	info.Retries += esc.Retries
	if err != nil {
		return nil, info, err
	}
	info.Adopted, info.HelperOp, info.Depth = esc.Adopted, esc.HelperOp, esc.Depth
	return vals, info, nil
}
