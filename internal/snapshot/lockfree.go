package snapshot

import (
	"sync"
	"sync/atomic"

	"partialsnapshot/internal/sched"
)

// LockFree is the paper's wait-free partial snapshot object. The name is
// historical (the type began life with bounded, lock-free-only helping);
// since helping became the unbounded recursive protocol of the paper, every
// PartialScan completes in a bounded number of its own steps plus adopted
// help — see embeddedScan for the termination argument. Zero value is not
// usable; call NewLockFree.
//
// The implementation is split by layer: epoch.go holds the epoch-versioned
// universe (the resizable shape behind Grow/Shrink), registers.go the
// value slots, their runs and the counter shards, registry.go the sharded
// announcement registry, scan.go the scanner side, helping.go the updater
// side.
type LockFree[V any] struct {
	// uni is the current universe — the single atomically-published pointer
	// behind which the whole component shape (register cells, registry
	// slots) lives. Operations pin it once (see pin) and never look again;
	// Grow/Shrink replace it by CAS.
	uni atomic.Pointer[universe[V]]

	reg registry[V] // announcement bookkeeping shared by all epochs

	// shards holds the sharded counters: update op ids (nextOp), walks the
	// quiescence summary proved unnecessary (see helpIntersectingScans),
	// and completed scan views the epoch recheck threw away because a
	// resize replaced a named component's register mid-scan (see
	// scanPinned). Sharding keeps the quiescent update path and the discard
	// path off any counter line an unrelated operation writes.
	shards [opShards]counterShard

	sched sched.Scheduler // nil outside schedule-injection tests

	runs sync.Pool // each P's run of never-used value slots (takeCells)

	// bufs and records recycle the hot paths' working state (collect
	// buffers, scan records) so steady-state operations stay allocation-
	// free; see pool.go for the reuse protocol.
	bufs    sync.Pool
	records recordPool[V]

	mut mutations[V] // test-only protocol breakages; all off in production

	scanRetries  atomic.Uint64
	helpsPosted  atomic.Uint64
	helpsAdopted atomic.Uint64
	maxDepth     atomic.Int64
	recReuses    atomic.Uint64

	epochInstalls atomic.Uint64
	grows         atomic.Uint64
	shrinks       atomic.Uint64

	// retiredWalks/retiredVisited accumulate the locality gauges of slots
	// dropped by Shrink, folded in at install time so Stats stays monotonic
	// across epochs (see Shrink).
	retiredWalks   atomic.Uint64
	retiredVisited atomic.Uint64
}

// mutations are the object's mutation seams. Each field, when set,
// re-introduces on purpose a bug the protocol exists to prevent, so the
// model-checking tests can prove the searcher convicts it; production
// objects leave every field zero. helpBound > 0 makes an embedded scan
// give up without posting help after that many failed double collects
// (the lock-free-only helping that preceded wait-freedom).
// unsafeEagerRelease pools a retired scan record despite helper pins.
// unpinnedEpoch makes an update walk the slots of the universe installed
// at walk time instead of the one it pinned, missing enrollments a
// shrink-and-regrow replaced. skipEpochRecheck returns scanPinned's views
// without re-loading the universe, so a view straddling a Shrink can pair
// a dropped component's frozen cell with a later write.
// earlySummaryDecrement hands a record's slot-group counts back at enroll,
// so updaters skip a live announced scan. A non-nil reuseCells makes
// every update write into that fixed ring's first slots (see takeCells).
type mutations[V any] struct {
	helpBound             int
	unsafeEagerRelease    bool
	unpinnedEpoch         bool
	skipEpochRecheck      bool
	earlySummaryDecrement bool
	reuseCells            []V
}

// NewLockFree returns a wait-free partial snapshot object with n components,
// each initialised to the zero value of V.
func NewLockFree[V any](n int) *LockFree[V] {
	if n <= 0 {
		panic("snapshot: number of components must be positive")
	}
	o := &LockFree[V]{records: &sharedRecordPool[V]{}}
	o.uni.Store(newUniverse[V](n))
	o.reg.release = o.releaseRef
	o.reg.mut = &o.mut
	return o
}

// Instrument installs a schedule-injection scheduler (see internal/sched)
// and returns o for chaining. It also swaps the record pool for a
// deterministic LIFO freelist, so pool hits — and the PreReuse yield
// points they trigger — are a pure function of the explored schedule
// rather than of sync.Pool's per-P caches. Call before the object is
// shared; it is not safe to race with operations.
func (o *LockFree[V]) Instrument(s sched.Scheduler) *LockFree[V] {
	o.sched = s
	o.reg.yield = o.yield
	o.records = &scriptedRecordPool[V]{}
	return o
}

func (o *LockFree[V]) yield(p sched.Point, arg int) {
	if o.sched != nil {
		o.sched.Yield(p, arg)
	}
}

// Components returns the component count of the currently installed epoch.
func (o *LockFree[V]) Components() int { return len(o.uni.Load().regs) }

// Epoch returns the current universe's epoch number (0 at construction,
// +1 per installed Grow/Shrink). Test and observability helper.
func (o *LockFree[V]) Epoch() uint64 { return o.uni.Load().epoch }

// Update writes vals[i] into component ids[i], as a sequence of per-
// component atomic stores (see the package comment for batch semantics).
// Before touching any cell it consults the registry slots of exactly the
// components it is about to write and helps every announced scan found
// there to completion — helping is unbounded, which is what guarantees an
// obstructed scanner always finds adoptable help.
func (o *LockFree[V]) Update(ids []int, vals []V) error {
	_, err := o.UpdateOp(ids, vals)
	return err
}

// UpdateOp is Update, additionally returning the unique operation id this
// update drew: the id it posts help views under, which provenance-aware
// tests match against ScanInfo.HelperOp and spec.Op.UpdateID. Every write
// takes never-used slots from a 128 B run, so the batch's stores publish
// addresses no collect can already hold.
func (o *LockFree[V]) UpdateOp(ids []int, vals []V) (uint64, error) {
	// Pin once: validation, the helping walk and the stores all run against
	// this one epoch's shape. A resize installed after this load linearizes
	// after this update (see epoch.go).
	u := o.pin()
	if err := validateArgs(len(u.regs), ids, vals); err != nil {
		return 0, err
	}
	op := o.nextOp(u, ids)
	o.helpIntersectingScans(u, ids, op)
	cells := o.takeCells(len(ids))
	for i, id := range ids {
		cells[i] = vals[i]
		o.yield(sched.PreCellStore, id)
		u.regs[id].ptr.Store(&cells[i])
	}
	return op, nil
}

// Stats exposes internal progress counters, used by tests and benchmarks
// to demonstrate the paper's locality property (disjoint operations never
// retry, help, or even observe each other's announcements) and the hygiene
// of the announcement registry.
type Stats struct {
	// ScanRetries counts failed double collects across all scans, embedded
	// ones included.
	ScanRetries uint64 `json:"scan_retries"`
	// HelpsPosted counts views posted by helping updaters.
	HelpsPosted uint64 `json:"helps_posted"`
	// HelpsAdopted counts scans (and embedded scans) that returned a helped
	// view.
	HelpsAdopted uint64 `json:"helps_adopted"`
	// LiveAnnouncements is a gauge of records currently enrolled and not
	// yet retired. It returns to zero whenever no operation is in flight;
	// anything else is a leaked record.
	LiveAnnouncements int64 `json:"live_announcements"`
	// MaxHelpDepth is the deepest help-chain level at which a view was
	// posted over the object's lifetime (0 = helping never recursed).
	MaxHelpDepth int64 `json:"max_help_depth"`
	// RegistryWalks counts updater walks of registry slots, one per
	// (update, named component) pair whose slot group's quiescence summary
	// read nonzero, summed across the current epoch's slots and the slots
	// retired by Shrink.
	RegistryWalks uint64 `json:"registry_walks"`
	// WalksSkipped counts the walks the quiescence summary elided: one per
	// (update, named component) pair whose slot group held no live
	// enrollment at the update's summary read. In a quiescent (no-scanner)
	// workload this approaches update ops × update width while
	// RegistryWalks stays near zero — the registry tax the summary
	// removes. RegistryWalks + WalksSkipped is the total consultation
	// count the walk-before-store argument is stated over.
	WalksSkipped uint64 `json:"walks_skipped"`
	// RecordsVisited counts live records those walks encountered, one per
	// (walk, enrollment) encounter. Under a workload partitioned over
	// disjoint component ranges, each partition's visits land on its own
	// slots and cross-partition visits are zero — see SlotStats.
	RecordsVisited uint64 `json:"records_visited"`
	// RecordsDeduped counts encounters skipped because the same record had
	// already been seen via an earlier slot of the same walk
	// (multi-enrollment dedup).
	RecordsDeduped uint64 `json:"records_deduped"`
	// RecordReuses counts scan-record announcements served from the record
	// pool rather than by a fresh allocation. In steady state this tracks
	// the slow-path announcement rate; the reuse tests use it to prove
	// pooling is actually exercised.
	RecordReuses uint64 `json:"record_reuses"`
	// Epoch is the current universe's epoch number.
	Epoch uint64 `json:"epoch"`
	// EpochInstalls counts successfully installed universes (= Grows +
	// Shrinks).
	EpochInstalls uint64 `json:"epoch_installs"`
	// Grows and Shrinks split EpochInstalls by direction.
	Grows   uint64 `json:"grows"`
	Shrinks uint64 `json:"shrinks"`
	// ViewsDiscarded counts completed scan views the epoch recheck threw
	// away because a resize replaced a named component's register between
	// the scan's pin and its completion (see scanPinned). Zero on every
	// resize-free workload — the recheck is one relaxed pointer load on the
	// success path and only ever fires across an install.
	ViewsDiscarded uint64 `json:"views_discarded"`
}

func (o *LockFree[V]) Stats() Stats {
	u := o.uni.Load()
	st := Stats{
		ScanRetries:       o.scanRetries.Load(),
		HelpsPosted:       o.helpsPosted.Load(),
		HelpsAdopted:      o.helpsAdopted.Load(),
		LiveAnnouncements: o.reg.live.Load(),
		MaxHelpDepth:      o.maxDepth.Load(),
		RecordsDeduped:    o.reg.deduped.Load(),
		RecordReuses:      o.recReuses.Load(),
		Epoch:             u.epoch,
		EpochInstalls:     o.epochInstalls.Load(),
		Grows:             o.grows.Load(),
		Shrinks:           o.shrinks.Load(),
		RegistryWalks:     o.retiredWalks.Load(),
		RecordsVisited:    o.retiredVisited.Load(),
	}
	for _, s := range u.slots {
		st.RegistryWalks += s.walks.Load()
		st.RecordsVisited += s.visited.Load()
	}
	for i := range o.shards {
		st.WalksSkipped += o.shards[i].walksSkipped.Load()
		st.ViewsDiscarded += o.shards[i].viewsDiscarded.Load()
	}
	return st
}

// SlotStats reports the registry activity of component c's slot in the
// current epoch: how many updater walks consulted it and how many live
// records those walks encountered. Locality tests sum these per component
// range to prove that a partitioned workload performs zero cross-partition
// registry visits.
func (o *LockFree[V]) SlotStats(c int) (walks, visited uint64) {
	s := o.uni.Load().slots[c]
	return s.walks.Load(), s.visited.Load()
}

// registryLen counts enrollments currently linked across the current
// epoch's slots, retired-but-not-yet-unlinked ones included; a record
// enrolled in k slots counts k times (test helper).
func (o *LockFree[V]) registryLen() int {
	n := 0
	u := o.uni.Load()
	for c := range u.slots {
		n += slotLen(u.slots[c])
	}
	return n
}

// slotLen counts enrollments currently linked in component c's slot of the
// current epoch (test helper).
func (o *LockFree[V]) slotLen(c int) int { return slotLen(o.uni.Load().slots[c]) }
