package snapshot

import (
	"fmt"
	"math"
	"sync/atomic"

	"partialsnapshot/internal/sched"
)

// This file is the epoch layer of LockFree: the universe — one immutable
// snapshot of the object's SHAPE (which components exist, and where their
// register cells and announcement slots live) — and Grow, the one
// operation that replaces it. The universe only grows: the paper's object,
// like the classic snapshot of Afek et al., fixes n, and Grow extends it
// without ever retiring a component.
//
// The object holds a single atomic *universe pointer. Every Update and
// PartialScan pins the universe once, up front, and runs entirely against
// the pinned epoch's cell and slot arrays; Grow builds a copy-on-grow
// successor and installs it with one CAS, which is the resize's
// linearization point. The successor ALIASES every existing component's
// state — its slices copy the per-component POINTERS, never the cells or
// slots themselves — so a store through any epoch's view of component c is
// immediately visible to every later epoch, and an enrollment in c's
// announcement slot is found by walkers pinned to any epoch. Grown
// components get fresh, zero-valued state.
//
// Why pinning preserves linearizability with no recheck: a component's
// register is the same object in every epoch that has it, and every epoch
// has every component of its predecessors. So an operation pinned to epoch
// e reads and writes exactly the registers it would have reached through
// the current epoch; the pin only fixes the bound validation checks ids
// against. A scan's view is a set of values its named registers held at
// one instant, and those registers are the current universe's registers
// for those ids, so the view is a view of the current object too. An id
// that is valid in e stays valid in every later epoch, and one that is
// invalid in e was invalid at the pin, which lies inside the operation's
// interval, so the rejection linearizes there.
//
// Why pinning preserves wait-freedom: the walk-before-store termination
// argument (see embeddedScan) is restated PER EPOCH. A collect over
// universe u can only be obstructed by updates writing u's cells, and every
// such update writes them through an epoch that shares those cells — hence
// shares the announcement slots the scan enrolled in, hence walks them
// before storing and posts help. An install racing a walk changes neither
// array under the walker: the walker's epoch is immutable, and updates
// pinned to the successor either name an existing component (whose slot is
// aliased, so they find the record) or write only fresh cells the pinned
// collect never reads (they cannot obstruct it). A resize is therefore
// just one more of the finitely many pre-walk events the argument already
// tolerates.
//
// Reclamation of superseded epochs is the garbage collector's job: a
// superseded universe stays reachable exactly as long as some in-flight
// operation (or a scan record's help chain) still pins it. Since every
// slot lives on in the successor, the locality gauges stay monotonic
// without any folding at install time.

// universe is one epoch's immutable shape: the per-component register cells
// and announcement slots, and the cached full id set. The slices are never
// mutated after construction; every component's pointers are shared by all
// the epochs that have it.
type universe[V any] struct {
	regs  []*reg[V]
	slots []*slot[V]
	all   []int // cached [0..n) for Scan
}

// reg is one component's register: the atomic pointer to its value slot
// that every operation reads and writes (see registers.go). Every epoch
// that has a component shares its reg, so a write through an old epoch is
// visible to readers of the new one.
type reg[V any] struct {
	ptr atomic.Pointer[V]
}

// newUniverse returns the initial universe, with n zero-valued components.
// Regs and slots are carved out of two contiguous backing arrays, so the
// initial epoch has the same memory layout a fixed-size object would.
func newUniverse[V any](n int) *universe[V] {
	u := &universe[V]{
		regs:  make([]*reg[V], n),
		slots: make([]*slot[V], n),
		all:   allIDs(n),
	}
	backing := make([]reg[V], n)
	slotBacking := make([]slot[V], n)
	initial := new(V)
	for i := 0; i < n; i++ {
		backing[i].ptr.Store(initial)
		u.regs[i] = &backing[i]
		u.slots[i] = &slotBacking[i]
	}
	return u
}

// grown returns the copy-on-grow successor with k fresh components: the
// prefix aliases u's per-component state, the new tail is fresh and
// zero-valued. Copying the pointers, not the cells and slots, is the whole
// correctness argument for resizing (see the file comment).
func (u *universe[V]) grown(k int) *universe[V] {
	n := len(u.regs)
	succ := &universe[V]{
		regs:  make([]*reg[V], n+k),
		slots: make([]*slot[V], n+k),
		all:   allIDs(n + k),
	}
	copy(succ.regs, u.regs)
	copy(succ.slots, u.slots)
	backing := make([]reg[V], k)
	slotBacking := make([]slot[V], k)
	initial := new(V)
	for i := 0; i < k; i++ {
		backing[i].ptr.Store(initial)
		succ.regs[n+i] = &backing[i]
		succ.slots[n+i] = &slotBacking[i]
	}
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
// universe; in-flight operations pinned to the predecessor are unaffected,
// since they name only components whose state the successor aliases. Lost
// CAS races against concurrent resizes rebuild and retry — each retry is
// caused by another install succeeding, so the loop is lock-free.
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
		if o.mut.freshSurvivors {
			// Test-only mutation seam: give every existing component a new
			// register holding its current value and a new empty slot,
			// instead of aliasing its state. A write by an update pinned to
			// old then lands in a register the successor no longer reads,
			// and an enrollment in old's slot is missed by walkers of succ.
			for i := range old.regs {
				r := new(reg[V])
				r.ptr.Store(old.regs[i].ptr.Load())
				succ.regs[i], succ.slots[i] = r, new(slot[V])
			}
		}
		o.yield(sched.PreEpochInstall, len(succ.regs))
		if o.uni.CompareAndSwap(old, succ) {
			o.grows.Add(1)
			return len(succ.regs), nil
		}
	}
}
