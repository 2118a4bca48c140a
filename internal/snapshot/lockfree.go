package snapshot

import (
	"sync"
	"sync/atomic"

	"partialsnapshot/internal/sched"
)

// LockFree is the paper's wait-free partial snapshot object. The name is
// historical (the type began life with bounded, lock-free-only helping);
// since helping became the unbounded recursive protocol of the paper, every
// operation completes in a bounded number of its own steps plus adopted
// help — see embeddedScan for the termination argument. Zero value is not
// usable; call NewLockFree.
//
// The component count n is fixed at construction, as in the paper and in
// the classic snapshot of Afek et al. The implementation is split by
// layer: registers.go holds the registers, their value slots and runs,
// registry.go the sharded announcement registry (announce, retire and the
// slot walk), scan.go the scanner side, helping.go the updater side.
//
// An update that finds no announced scan writes only its new value slots,
// its components' registers and its first component's slot's skip tally,
// nothing in the object itself. The counters below are written only on
// the contended paths (retries, help, announcements), on lines apart from
// the read-only header's (TestHeaderLayout).
type LockFree[V any] struct {
	// The read-only header, fixed by NewLockFree: every operation loads
	// these slice headers and nothing writes them again.
	regs  []reg[V]  // one register per component, packed 8 B apart
	slots []slot[V] // one announcement slot per component, 128 B apart
	all   []int     // cached [0..n) for Scan

	sched sched.Scheduler // nil outside schedule-injection tests

	runs sync.Pool // each P's run of never-used value slots (takeCells)

	bufs sync.Pool // collect buffers for scans wider than stackCollect (pool.go)

	mut mutations[V] // test-only protocol breakages; all off in production

	scanRetries  atomic.Uint64
	helpsPosted  atomic.Uint64
	helpsAdopted atomic.Uint64
	maxDepth     atomic.Int64
	live         atomic.Int64 // records announced and not yet retired
}

// mutations are the object's mutation seams. Each field, when set,
// re-introduces on purpose a bug the protocol exists to prevent, so the
// model-checking tests can prove the searcher convicts it; production
// objects leave every field zero. helpBound > 0 makes an embedded scan
// give up without posting help after that many failed double collects
// (the lock-free-only helping that preceded wait-freedom).
// staleHeadEmpty makes an update treat a slot whose head enrollment is
// stale as empty, missing any live enrollment linked behind it. A non-nil
// reuseCells makes every update write into that fixed ring's first slots
// (see takeCells).
type mutations[V any] struct {
	helpBound      int
	staleHeadEmpty bool
	reuseCells     []V
}

// NewLockFree returns a wait-free partial snapshot object with n components,
// each initialised to the zero value of V.
func NewLockFree[V any](n int) *LockFree[V] {
	if n <= 0 {
		panic("snapshot: number of components must be positive")
	}
	o := &LockFree[V]{
		regs:  make([]reg[V], n),
		slots: make([]slot[V], n),
		all:   allIDs(n),
	}
	initial := new(V)
	for i := range o.regs {
		o.regs[i].ptr.Store(initial)
	}
	return o
}

// Instrument installs a schedule-injection scheduler (see internal/sched)
// and returns o for chaining. Call before the object is shared; it is not
// safe to race with operations.
func (o *LockFree[V]) Instrument(s sched.Scheduler) *LockFree[V] {
	o.sched = s
	return o
}

func (o *LockFree[V]) yield(p sched.Point, arg int) {
	if o.sched != nil {
		o.sched.Yield(p, arg)
	}
}

// Components returns n, the object's fixed component count.
func (o *LockFree[V]) Components() int { return len(o.regs) }

// Update writes vals[i] into component ids[i], as a sequence of per-
// component atomic stores (see the package comment for batch semantics).
// Before touching any cell it consults the registry slots of exactly the
// components it is about to write and helps every announced scan found
// there to completion — helping is unbounded, which is what guarantees an
// obstructed scanner always finds adoptable help. Every write takes
// never-used slots from a 128 B run, so the batch's stores publish
// addresses no collect can already hold.
func (o *LockFree[V]) Update(ids []int, vals []V) error {
	if err := validateArgs(len(o.regs), ids, vals); err != nil {
		return err
	}
	o.helpIntersectingScans(ids)
	cells := o.takeCells(len(ids))
	for i, id := range ids {
		cells[i] = vals[i]
		o.yield(sched.PreCellStore, id)
		o.regs[id].ptr.Store(&cells[i])
	}
	return nil
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
	// RegistryWalks counts updater consultations of registry slots that
	// found a non-empty head and walked the slot, one per (update, named
	// component) pair, summed across the slots.
	RegistryWalks uint64 `json:"registry_walks"`
	// WalksSkipped counts consultations that found a nil head: one per
	// (update, named component) pair whose slot held no enrollment at the
	// update's head load, summed across the slots.
	// In a quiescent (no-scanner) workload it equals update ops × update
	// width while RegistryWalks stays zero. RegistryWalks + WalksSkipped
	// is the total consultation count the walk-before-store argument is
	// stated over.
	WalksSkipped uint64 `json:"walks_skipped"`
	// RecordsVisited counts live records those walks encountered, one per
	// (walk, enrollment) encounter. Under a workload partitioned over
	// disjoint component ranges, each partition's visits land on its own
	// slots and cross-partition visits are zero — see SlotStats.
	RecordsVisited uint64 `json:"records_visited"`
	// RecordReuses always reads 0: scan records are never reused, but the
	// repository benchmark (perfbench) reads the key.
	RecordReuses uint64 `json:"record_reuses"`
}

func (o *LockFree[V]) Stats() Stats {
	st := Stats{
		ScanRetries:       o.scanRetries.Load(),
		HelpsPosted:       o.helpsPosted.Load(),
		HelpsAdopted:      o.helpsAdopted.Load(),
		LiveAnnouncements: o.live.Load(),
		MaxHelpDepth:      o.maxDepth.Load(),
	}
	for i := range o.slots {
		s := &o.slots[i]
		st.RegistryWalks += s.walks.Load()
		st.WalksSkipped += s.skipped.Load()
		st.RecordsVisited += s.visited.Load()
	}
	return st
}

// SlotStats reports the registry activity of component c's slot: how many
// updater consultations found a non-nil head and walked it, and how many
// live records those walks encountered. Locality tests sum these per
// component range to prove that a partitioned workload performs zero
// cross-partition registry visits.
func (o *LockFree[V]) SlotStats(c int) (walks, visited uint64) {
	s := &o.slots[c]
	return s.walks.Load(), s.visited.Load()
}
