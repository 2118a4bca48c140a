package snapshot

import "partialsnapshot/internal/sched"

// This file is the updater side of the paper's helping protocol: finding
// announced scans that intersect an update's write set via the sharded
// registry, and the recursive embedded scans that serve them.

// helpView is a consistent view of a record's component set posted by a
// helping updater, stamped with provenance: which update posted it and how
// deep in the help chain the clean double collect that produced it ran.
type helpView[V any] struct {
	vals  []V
	by    uint64 // op id of the Update that posted this view
	depth int    // chain level of the clean double collect behind the view
}

// helpIntersectingScans consults u's registry for every component the
// update is about to write and, for each live record found, completes an
// embedded scan of that record's set and posts the view. Records enrolled
// in several of the walked slots are seen once per shared slot and deduped
// against the update's seen list. Disjoint scans live in slots this update
// never touches, so they cost it nothing and are never observed — unlike
// the earlier global announcement stack, which every update walked end to
// end.
//
// A consultation is one load of the slot's head, inline: a nil head means
// no scan is enrolled there, and the update tallies a skip and moves on
// without a call or a write to the slot's cache line. Only a non-nil head
// is walked. A scan enrolled in component c either linked its enrollment
// before our head load (we walk c's slot and find it) or after (our
// consultation of c precedes its enrollment, making this update one of the
// finitely many pre-walk updates per component the termination argument in
// embeddedScan already tolerates). Skips are tallied in the op's counter
// shard instead of the per-slot gauges.
//
// u is the updater's pinned universe. Every epoch aliases its
// predecessors' slots (see epoch.go), so the consultation observes records
// enrolled through any epoch that has the component; records found may
// therefore carry a rec.uni older than u, and the embedded scan runs
// through THAT universe — the epoch the scanner's collects read.
//
// The dedup list starts in a small stack array, as doubleCollect's first
// collect does: an update that serves a handful of records allocates
// nothing for it.
func (o *LockFree[V]) helpIntersectingScans(u *universe[V], ids []int, op uint64) {
	var seenBuf [4]*scanRecord[V]
	seen := seenBuf[:0]
	skipped := 0
	for _, id := range ids {
		o.yield(sched.PreSlotWalk, id)
		s := u.slots[id]
		head := s.head.Load()
		if head == nil || (o.mut.staleHeadEmpty && head.stale()) {
			skipped++
			continue
		}
		seen = o.walkSlot(s, id, head, op, seen)
	}
	if skipped != 0 {
		// One sharded add per update, on the counter shard its op id came
		// from (op's low bits name it), so it lands on the cache line the
		// op-id add already wrote: the quiescent fast path writes no
		// registry cache line at all, and no second counter line.
		o.shards[op&(opShards-1)].walksSkipped.Add(uint64(skipped))
	}
}

// help serves one live record a walk found: unless the update already
// served it through an earlier slot (seen), or help is already posted, it
// runs an embedded scan of the record's set and posts the view under op.
// It returns seen extended by the record. Comparing pointers is enough
// because a record is never reused: the same pointer is the same
// announcement.
func (o *LockFree[V]) help(rec *scanRecord[V], op uint64, seen []*scanRecord[V]) []*scanRecord[V] {
	for _, s := range seen {
		if s == rec {
			o.deduped.Add(1)
			return seen
		}
	}
	seen = append(seen, rec)
	if rec.help.Load() != nil {
		return seen
	}
	o.yield(sched.PreHelpScan, rec.level+1)
	if view, depth, ok := o.embeddedScan(rec, op); ok {
		o.yield(sched.PreHelpPost, rec.level)
		if rec.help.CompareAndSwap(nil, &helpView[V]{vals: view, by: op, depth: depth}) {
			o.helpsPosted.Add(1)
			atomicMax(&o.maxDepth, int64(depth))
		}
	}
	return seen
}

// embeddedScan produces a consistent view of target's component set on
// behalf of a helping updater. This is the paper's recursive helping: the
// embedded scan announces a record of its own (at target.level+1, enrolled
// in the same component slots as the target), so updaters that obstruct
// the helper are in turn obliged to help it, and help records form a
// chain.
//
// Termination argument (why unbounded looping here cannot run forever): a
// double collect only fails when some update stored one of the record's
// cells between the two collects. An update that writes component c
// consults c's registry slot before storing to c — it loads the slot's
// head and walks from there — so if its head load for c came after rec's
// enrollment CAS there, it finds rec and posts help. Only updates whose
// head load for some named component preceded rec's enrollment in it can
// obstruct without helping — finitely many per component, finitely many in
// total — so after they drain, every further obstruction implies help
// arrives on rec and the loop exits via adoption. The same argument
// applies to the helper of the helper; the chain is finite because each
// level is occupied by a distinct concurrent update and the deepest level,
// obstructed by nobody new, completes by a clean double collect.
//
// ok=false means the target no longer needs help (its scan completed or
// somebody else posted first) — a need-based exit, not a bounded bail-out.
// The one exception is the helpBound mutation seam: a test-injected bound
// re-creates the old lock-free-only behaviour of giving up after a fixed
// number of failed collects, which the model-checking tests use to prove
// the searcher catches the resulting protocol violation.
//
// The whole embedded scan — collects and its own announcement — runs
// through target.uni, the epoch the target's scanner pinned, not through
// the helper's own pinned epoch: the view must be consistent in the
// scanner's universe, and the chained record must be findable by exactly
// the updates that can obstruct collects of that universe. A posted view
// may be collected through an epoch older than the current one by the
// time it is adopted — a Grow can install while the help was being
// produced — which is harmless because every later epoch aliases the
// record's registers: the view is a view of the current object too.
func (o *LockFree[V]) embeddedScan(target *scanRecord[V], op uint64) (view []V, depth int, ok bool) {
	tu := target.uni
	level := target.level + 1
	failures := 0
	// Fast path: try one unannounced double collect first.
	if vals, ok := o.doubleCollect(tu, target.ids, level); ok {
		return vals, level, true
	}
	o.scanRetries.Add(1)
	failures++
	if o.mut.helpBound > 0 && failures >= o.mut.helpBound {
		return nil, 0, false // injected mutation: abandon the scanner
	}
	rec := newRecord(tu, target.ids, level)
	o.announce(rec)
	defer o.retire(rec)
	o.yield(sched.PostAnnounce, level)
	for {
		if target.done.Load() || target.help.Load() != nil {
			return nil, 0, false
		}
		if vals, ok := o.doubleCollect(tu, rec.ids, level); ok {
			return vals, level, true
		}
		o.scanRetries.Add(1)
		failures++
		if o.mut.helpBound > 0 && failures >= o.mut.helpBound {
			return nil, 0, false // injected mutation: abandon the scanner
		}
		if h := rec.help.Load(); h != nil {
			o.yield(sched.PreAdopt, level)
			o.helpsAdopted.Add(1)
			return append([]V(nil), h.vals...), h.depth, true
		}
	}
}
