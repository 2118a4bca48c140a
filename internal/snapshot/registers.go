package snapshot

import (
	"sync/atomic"
	"unsafe"
)

// This file is the register layer of LockFree: the registers, the value
// slots every collect reads and the runs updates take them from. Nothing
// here knows about announcements or helping.
//
// A register is one component's atomic pointer to an immutable value
// slot; the object holds them in one flat array, eight to a cache line.
// Every write takes never-used slots from a 128 B run, so pointer identity
// distinguishes writes: a double collect that loads the same *V twice
// knows the component did not change in between. That identity is the
// paper's per-register tag. Go's GC rules out ABA: a held pointer keeps
// its whole run alive, and no slot is ever handed out twice, so no write
// can reuse an address a collect still holds. The cost is that a register
// keeps up to one run of stale values alive.
//
// The one exception is a zero-size V: every slot of such a V may share one
// address, so a double collect cannot see a write. That is harmless. V then
// has exactly one value, every write stores it, and so every view a scan
// can return is the one every linearization agrees on.

// runBytes is the size of a run of value slots: two cache lines, so a
// width-2 int64 update starts a new run (one allocation) every eighth time.
const runBytes = 128

// cellRun is one P's run of never-used value slots. It lives in the
// object's runs pool, so only the cursor is recycled: a slot leaves free
// exactly once and is written only before its register store publishes it.
type cellRun[V any] struct {
	free []V
}

// takeCells returns k never-used value slots, in order, from this P's run,
// starting a run of max(k, 128 B worth) when fewer than k are left. The
// one path covers wide batches and large V.
func (o *LockFree[V]) takeCells(k int) []V {
	if ring := o.mut.reuseCells; ring != nil {
		// Test-only mutation seam: hand every update the ring's first k
		// slots, so a slot is written again while a parked collect may
		// still hold it — the cell ABA the never-reuse rule prevents.
		return ring[:k]
	}
	r, _ := o.runs.Get().(*cellRun[V])
	if r == nil {
		r = &cellRun[V]{}
	}
	if len(r.free) < k {
		// A V wider than a run gets a run of one batch; a zero-size V
		// must not divide by zero.
		r.free = make([]V, max(k, runBytes/max(1, int(unsafe.Sizeof(*new(V))))))
	}
	cells := r.free[:k:k]
	r.free = r.free[k:]
	o.runs.Put(r)
	return cells
}

// reg is one component's register: the atomic pointer to its current
// value slot that every operation reads and writes.
type reg[V any] struct {
	ptr atomic.Pointer[V]
}

func atomicMax(g *atomic.Int64, v int64) {
	for {
		old := g.Load()
		if old >= v || g.CompareAndSwap(old, v) {
			return
		}
	}
}
