package snapshot

import (
	"sync/atomic"
	"unsafe"
)

// This file is the register layer of LockFree: the value slots every
// collect reads, the runs updates take them from, and the sharded counters
// that hand out update op ids. Nothing here knows about announcements or
// helping.
//
// A register points at an immutable value slot. Every write takes
// never-used slots from a 128 B run, so pointer identity distinguishes
// writes: a double collect that loads the same *V twice knows the
// component did not change in between. That identity is the paper's
// per-register tag. Go's GC rules out ABA: a held pointer keeps its whole
// run alive, and no slot is ever handed out twice, so no write can reuse
// an address a collect still holds. The cost is that a register keeps up
// to one run of stale values alive.
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

// opShards is the number of counter shards. It must stay a power of two
// matching the shift in nextOp.
const opShards = 64

// counterShard holds one shard of each of LockFree's sharded counters: the
// op-id counter nextOp draws from and the walksSkipped tally. Both pick
// their shard by one rule (universe.shard), so an update's op-id add and
// its walk-skip add land on one cache line. The
// padding keeps each shard alone on its line and on the line the
// adjacent-line prefetcher pairs with it, so shards never false-share.
type counterShard struct {
	ops          atomic.Uint64
	walksSkipped atomic.Uint64
	_            [112]byte
}

// shard returns the index of the counter shard of an operation naming
// ids, chosen by scaling its first component into [0, opShards). A single
// global counter would put one contended cache line on every update's hot
// path — cross-partition interference the sharded registry exists to
// remove. Contiguous component ranges map to contiguous shard ranges, so
// operations pinned to disjoint ranges hit disjoint shards whenever the
// ranges are at least n/opShards wide (a modulo would instead alias ranges
// n/opShards apart onto the same shards). Scaling uses this epoch's size,
// so the shard is stable within an operation regardless of a concurrent
// Grow.
func (u *universe[V]) shard(ids []int) uint64 {
	return uint64(ids[0]) * opShards / uint64(len(u.regs))
}

// nextOp returns a unique, nonzero op id for an update naming ids, drawn
// from its counter shard. The shard index rides in the low bits, keeping
// ids unique across shards and naming the shard the id came from, and
// every id is >= opShards, so 0 still means "no update".
func (o *LockFree[V]) nextOp(u *universe[V], ids []int) uint64 {
	i := u.shard(ids)
	return o.shards[i].ops.Add(1)<<6 | i
}

func atomicMax(g *atomic.Int64, v int64) {
	for {
		old := g.Load()
		if old >= v || g.CompareAndSwap(old, v) {
			return
		}
	}
}
