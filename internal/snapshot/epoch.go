package snapshot

import (
	"fmt"
	"math"
	"sync/atomic"

	"partialsnapshot/internal/sched"
)

// This file is the epoch layer of LockFree: the universe — one immutable
// snapshot of the object's SHAPE (which components exist, and where their
// register cells and announcement slots live) — and the Grow/Shrink
// operations that replace it.
//
// The object holds a single atomic *universe pointer. Every Update and
// PartialScan pins the universe once, up front, and runs entirely against
// the pinned epoch's cell and slot arrays; Grow and Shrink build a
// copy-on-grow successor and install it with one CAS, which is the resize's
// linearization point. Surviving components ALIAS their per-component state
// across epochs — successor slices copy the per-component POINTERS, never
// the cells or slots themselves — so a store through any epoch's view of
// component c is immediately visible to every other epoch that still knows
// c, and an enrollment in c's announcement slot is found by walkers pinned
// to any epoch sharing c. Freshly grown components get fresh, zero-valued
// state: a component that is shrunk away and later re-grown comes back
// empty rather than resurrecting its old value.
//
// Why pinning preserves linearizability: an operation that pinned epoch e
// before a resize installed e+1 is, by that very ordering, concurrent with
// the resize (its interval contains the pin, the resize's contains the
// install, and pin < install), so linearizing the operation BEFORE the
// resize is always consistent with real time — PROVIDED everything it
// observed existed before the install. Pinning alone does not guarantee
// that for scans: a survivor's register is the SAME object in e and e+1
// (aliasing), so an update pinned to e+1 stores through a cell a parked
// epoch-e scan still reads, and a scan whose named set also includes a
// component the install dropped can stabilise a view mixing that
// component's frozen pre-install cell with the survivor's post-install
// write — a view that linearizes neither before the install (it contains
// a later write) nor after it (the dropped id no longer exists). Making
// every returned view single-instant across installs is therefore the
// scanner's job, not the pin's: scanPinned (scan.go) re-loads the
// universe pointer after each completed view and discards it unless every
// named component still aliases the pinned epoch's register. Updates need
// no such recheck — each one writes exactly one epoch's cells, and a
// write through an aliased cell is a write in every epoch sharing it.
//
// Why pinning preserves wait-freedom: the walk-before-store termination
// argument (see embeddedScan) is restated PER EPOCH. A collect over
// universe u can only be obstructed by updates writing u's cells, and every
// such update is pinned to an epoch that shares those cells — hence shares
// the announcement slots the scan enrolled in, hence walks them before
// storing and posts help. An install racing a walk changes neither array
// under the walker: the walker's epoch is immutable, and updates pinned to
// the successor either share the slot (aliased — they find the record) or
// write only fresh cells the pinned collect never reads (they cannot
// obstruct it). A resize is therefore just one more of the finitely many
// pre-walk events the argument already tolerates.
//
// Reclamation of retired epochs is the garbage collector's job, by the same
// idiom the generation-tagged record pool uses for record incarnations: a
// retired universe stays reachable exactly as long as some in-flight
// operation (or a scan record's help chain) still pins it, and is collected
// the moment the last pin drops. Shrunk components' locality counters are
// folded into the object's retired accumulators at install time so Stats
// stays monotonic across epochs.

// groupShift and groupSize fix the granularity of the registry's
// quiescence summary: components c and c' share one summary counter iff
// c>>groupShift == c'>>groupShift. 64 components per group keeps the whole
// summary of a mid-sized object on a handful of cache lines while still
// letting disjoint workloads read disjoint counters.
const (
	groupShift = 6
	groupSize  = 1 << groupShift
)

// numGroups returns how many slot groups cover n components.
func numGroups(n int) int { return (n + groupSize - 1) >> groupShift }

// slotGroup is the quiescence summary of groupSize consecutive components'
// announcement slots: announced counts the enrollments currently linked
// (or being linked) in the group's slots, one per (record, named component
// in the group) pair. enroll raises every named component's count BEFORE
// linking any slot and retire lowers it only AFTER the record is logically
// done, so a zero read proves the group's slots hold no enrollment that
// still needs help — the proof helpIntersectingScans skips walks on.
// Padded so groups of different component ranges never share a cache line.
type slotGroup struct {
	announced atomic.Int64
	_         [120]byte
}

// universe is one epoch's immutable shape: the per-component register cells
// and announcement slots (plus their slot-group summaries), and the cached
// full id set. The slices are never mutated after construction; surviving
// components' pointers are shared between consecutive epochs — slot groups
// included, so a count raised through one epoch is read through every
// epoch that shares any of the group's components.
type universe[V any] struct {
	epoch  uint64
	regs   []*reg[V]
	slots  []*slot[V]
	groups []*slotGroup
	all    []int // cached [0..n) for Scan
}

// reg is one component's register: the atomic pointer to its value slot
// that every operation reads and writes (see registers.go). Surviving
// components share their reg across epochs, so a write through an old
// epoch is visible to readers of the new one, while a shrunk-and-regrown
// component comes back with a fresh reg pointing at a zero value.
type reg[V any] struct {
	ptr atomic.Pointer[V]
}

// newUniverse returns epoch 0 with n zero-valued components. Regs and
// slots are carved out of two contiguous backing arrays, so the initial
// epoch has the same memory layout a fixed-size object would.
func newUniverse[V any](n int) *universe[V] {
	u := &universe[V]{
		regs:   make([]*reg[V], n),
		slots:  make([]*slot[V], n),
		groups: make([]*slotGroup, numGroups(n)),
		all:    allIDs(n),
	}
	backing := make([]reg[V], n)
	slotBacking := make([]slot[V], n)
	groupBacking := make([]slotGroup, numGroups(n))
	initial := new(V)
	for i := 0; i < n; i++ {
		backing[i].ptr.Store(initial)
		u.regs[i] = &backing[i]
		u.slots[i] = &slotBacking[i]
	}
	for i := range u.groups {
		u.groups[i] = &groupBacking[i]
	}
	return u
}

// grown returns the copy-on-grow successor with k fresh components: the
// surviving prefix aliases u's per-component state, the new tail is fresh
// and zero-valued.
func (u *universe[V]) grown(k int) *universe[V] {
	n := len(u.regs)
	succ := &universe[V]{
		epoch:  u.epoch + 1,
		regs:   make([]*reg[V], n+k),
		slots:  make([]*slot[V], n+k),
		groups: make([]*slotGroup, numGroups(n+k)),
		all:    allIDs(n + k),
	}
	copy(succ.regs, u.regs)
	copy(succ.slots, u.slots)
	// Every predecessor group survives — including a partial last group,
	// whose surviving components must keep sharing their counter with
	// enrollments made through the predecessor; only component ranges the
	// predecessor never covered get fresh groups. This aliasing is what
	// carries the summary across epochs: any two epochs that share a
	// component's slot also share the group counter guarding it, so a count
	// raised by a scanner pinned to either epoch is read by updaters pinned
	// to the other.
	copy(succ.groups, u.groups)
	backing := make([]reg[V], k)
	slotBacking := make([]slot[V], k)
	groupBacking := make([]slotGroup, numGroups(n+k)-len(u.groups))
	initial := new(V)
	for i := 0; i < k; i++ {
		backing[i].ptr.Store(initial)
		succ.regs[n+i] = &backing[i]
		succ.slots[n+i] = &slotBacking[i]
	}
	for i := range groupBacking {
		succ.groups[len(u.groups)+i] = &groupBacking[i]
	}
	return succ
}

// shrunk returns the successor without the k highest-numbered components.
// The surviving prefix is copied into fresh slices (not re-sliced), so the
// successor does not pin the dropped components' state for the collector.
func (u *universe[V]) shrunk(k int) *universe[V] {
	n := len(u.regs) - k
	succ := &universe[V]{
		epoch:  u.epoch + 1,
		regs:   make([]*reg[V], n),
		slots:  make([]*slot[V], n),
		groups: make([]*slotGroup, numGroups(n)),
		all:    allIDs(n),
	}
	copy(succ.regs, u.regs[:n])
	copy(succ.slots, u.slots[:n])
	// Surviving groups alias the predecessor's, the boundary group
	// included even when some of its components were dropped: scans pinned
	// to the predecessor may still hold counts there for dropped
	// components, which makes the successor's summary a conservative
	// over-approximation (nonzero forces a walk that finds nothing) —
	// never an unsound zero.
	copy(succ.groups, u.groups[:numGroups(n)])
	return succ
}

// pin loads the current universe — the one atomic read that decides which
// epoch the calling operation runs against.
func (o *LockFree[V]) pin() *universe[V] {
	o.yield(sched.PreEpochPin, 0)
	return o.uni.Load()
}

// Grow appends k fresh zero-valued components and returns the new component
// count. The resize linearizes at the CAS that installs the successor
// universe; in-flight operations pinned to the predecessor are unaffected
// (they linearize before the Grow). Lost CAS races against concurrent
// resizes rebuild and retry — each retry is caused by another install
// succeeding, so the loop is lock-free.
func (o *LockFree[V]) Grow(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("%w: grow by %d components", ErrBadResize, k)
	}
	for {
		old := o.uni.Load()
		if k > math.MaxInt-len(old.regs) {
			return 0, fmt.Errorf("%w: grow %d components by %d overflows int", ErrBadResize, len(old.regs), k)
		}
		succ := old.grown(k)
		o.yield(sched.PreEpochInstall, len(succ.regs))
		if o.uni.CompareAndSwap(old, succ) {
			o.epochInstalls.Add(1)
			o.grows.Add(1)
			return len(succ.regs), nil
		}
	}
}

// Shrink removes the k highest-numbered components and returns the new
// count. At least one component must survive. Operations already pinned to
// the predecessor still see — and may still write — the dropped components
// (they linearize before the Shrink); operations pinning the successor get
// ErrBadComponent for them. A component re-created by a later Grow starts
// fresh and zero-valued.
func (o *LockFree[V]) Shrink(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("%w: shrink by %d components", ErrBadResize, k)
	}
	for {
		old := o.uni.Load()
		if k >= len(old.regs) {
			return 0, fmt.Errorf("%w: shrink by %d of %d components", ErrBadResize, k, len(old.regs))
		}
		succ := old.shrunk(k)
		o.yield(sched.PreEpochInstall, len(succ.regs))
		if o.uni.CompareAndSwap(old, succ) {
			// Fold the dropped slots' locality gauges into the retired
			// accumulators so Stats stays monotonic. Walkers still pinned to
			// the old epoch may bump a dropped slot after this fold; the
			// undercount is bounded by the ops in flight at the install.
			for _, s := range old.slots[len(succ.regs):] {
				o.retiredWalks.Add(s.walks.Load())
				o.retiredVisited.Add(s.visited.Load())
			}
			o.epochInstalls.Add(1)
			o.shrinks.Add(1)
			return len(succ.regs), nil
		}
	}
}
