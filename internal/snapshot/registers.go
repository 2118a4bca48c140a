package snapshot

import "sync/atomic"

// This file is the register layer of LockFree: the per-component atomic
// cells every collect reads, and the sharded counters that hand out update
// op ids. Nothing here knows about announcements or helping.

// cell is one immutable register value for a single component. Every write
// allocates a fresh cell, so pointer identity distinguishes writes: a
// double collect that loads the same *cell twice knows the component did
// not change in between (Go's GC rules out ABA while the collect still
// holds the old pointer). That identity is the paper's per-register tag,
// so the cell holds only the value.
//
// The one exception is a zero-size V: Go may give every zero-size
// allocation the same address, so all cells of such a V can share one
// pointer and a double collect cannot see a write. That is harmless. V then
// has exactly one value, every write stores it, and so every view a scan
// can return is the one every linearization agrees on.
type cell[V any] struct {
	val V
}

// opShards is the number of counter shards. It must stay a power of two
// matching the shift in nextOp.
const opShards = 64

// counterShard holds one shard of each of LockFree's sharded counters: the
// op-id counter nextOp draws from and the walksSkipped and viewsDiscarded
// tallies. All three pick their shard by one rule (universe.shard), so an
// update's op-id add and its walk-skip add land on one cache line. The
// padding keeps each shard alone on its line and on the line the
// adjacent-line prefetcher pairs with it, so shards never false-share.
type counterShard struct {
	ops            atomic.Uint64
	walksSkipped   atomic.Uint64
	viewsDiscarded atomic.Uint64
	_              [104]byte
}

// shard returns the index of the counter shard of an operation naming
// ids, chosen by scaling its first component into [0, opShards). A single
// global counter would put one contended cache line on every update's hot
// path — cross-partition interference the sharded registry exists to
// remove. Contiguous component ranges map to contiguous shard ranges, so
// operations pinned to disjoint ranges hit disjoint shards whenever the
// ranges are at least n/opShards wide (a modulo would instead alias ranges
// n/opShards apart onto the same shards). Scaling uses this epoch's size,
// so the shard is stable within an operation regardless of concurrent
// resizes.
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
