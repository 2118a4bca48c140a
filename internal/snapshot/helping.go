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

// seenRecord is one entry of an updater walk's dedup list. The generation
// rides along because records recycle: the same pointer re-announced under
// a new generation inside one multi-slot walk is a fresh obligation to
// help, not a repeat encounter.
type seenRecord[V any] struct {
	rec *scanRecord[V]
	gen uint64
}

// helpIntersectingScans consults u's registry for every component the
// update is about to write and, for each live record found, completes an
// embedded scan of that record's set and posts the view. Records enrolled
// in several of the walked slots are seen once per shared slot and deduped
// against the walk's seen list. Disjoint scans live in slots this walk
// never touches, so they cost the update nothing and are never observed —
// unlike the earlier global announcement stack, which every update walked
// end to end.
//
// The consultation is summary-first: per written component the updater
// loads the slot group's announced count (once per contiguous run of
// same-group components — the load is cached across the run) and walks the
// slot only when the count is nonzero. A zero count is a sound proof of
// emptiness because enroll raises it before any head CAS: a scan enrolled
// in component c either raised c's group before our load (we read nonzero
// and walk c's slot) or raised it after (our consultation of c precedes
// its enrollment, making this update one of the finitely many pre-walk
// updates per component the termination argument in embeddedScan already
// tolerates). The converse race — count already raised, head not yet
// CAS'd — costs a walk that finds nothing, wasted but safe, and resolves
// the same way. Skipped walks touch no slot cache line and are tallied in
// the sharded walksSkipped counter instead of the per-slot gauges.
//
// u is the updater's pinned universe. A slot surviving across epochs is
// aliased — and so is its slot group, see epoch.go — so the summary and
// the walk observe records enrolled through any epoch that shares the
// component; records found may therefore carry a rec.uni older than u, and
// the embedded scan runs through THAT universe — the epoch the scanner's
// collects read.
func (o *LockFree[V]) helpIntersectingScans(u *universe[V], ids []int, op uint64) {
	var seen []seenRecord[V] // allocated only if a live record is found
	var lastGroup *slotGroup
	lastQuiet := false
	skipped := 0
	for _, id := range ids {
		// The summary is read through the pinned epoch: its groups are
		// aliased by every epoch sharing any of the group's components, so a
		// count raised through any such epoch is visible here.
		if g := u.groups[id>>groupShift]; g != lastGroup {
			o.yield(sched.PreSummaryRead, id)
			lastGroup, lastQuiet = g, g.announced.Load() == 0
		}
		if lastQuiet {
			skipped++
			continue
		}
		o.yield(sched.PreSlotWalk, id)
		wu := u
		if o.mut.unpinnedEpoch {
			// Test-only mutation seam: walk the slot of whatever universe is
			// installed at WALK time instead of the pinned one, while the
			// caller still stores through the pinned cells — the
			// unpinned-epoch walker bug the DFS conviction test targets. A
			// shrink-then-regrow between the pin and this load replaces the
			// component's slot with a fresh one, so the walk misses
			// enrollments the protocol obliges it to serve. The bounds guard
			// keeps the mutant a protocol violation rather than a crash when
			// the current universe is smaller than the pinned one.
			if cur := o.uni.Load(); id < len(cur.slots) {
				wu = cur
			}
		}
		o.reg.walkSlot(wu.slots[id], id, func(rec *scanRecord[V], gen uint64) {
			for _, s := range seen {
				if s.rec == rec && s.gen == gen {
					o.reg.deduped.Add(1)
					return
				}
			}
			seen = append(seen, seenRecord[V]{rec: rec, gen: gen})
			if rec.help.Load() != nil {
				return
			}
			o.yield(sched.PreHelpScan, rec.level+1)
			if view, depth, ok := o.embeddedScan(rec, op); ok {
				o.yield(sched.PreHelpPost, rec.level)
				if rec.help.CompareAndSwap(nil, &helpView[V]{vals: view, by: op, depth: depth}) {
					o.helpsPosted.Add(1)
					atomicMax(&o.maxDepth, int64(depth))
				}
			}
		})
	}
	if skipped != 0 {
		// One sharded add per update, on the counter shard its op id came
		// from (op's low bits name it), so it lands on the cache line the
		// op-id add already wrote: the quiescent fast path writes no
		// registry cache line at all, and no second counter line.
		o.shards[op&(opShards-1)].walksSkipped.Add(uint64(skipped))
	}
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
// consults c's registry before storing to c — it loads c's slot-group
// summary and, on a nonzero count, walks c's slot — so if its summary load
// for c came after rec's enrollment raised the count there, it reads
// nonzero, walks, finds rec and posts help. Only updates whose
// consultation of some named component (summary load or walk) preceded
// rec's count-raise for it can obstruct without helping — finitely many
// per component, finitely many in total — so after they drain, every
// further obstruction implies help arrives on rec and the loop exits via
// adoption. The summary skip thus changes which updates are "pre-walk",
// never their finiteness: a skipping update IS a pre-walk update for every
// record enrolled after its load. The same argument
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
// may therefore be epoch-stale by the time it is adopted — a resize can
// install while the help was being produced — which is fine because the
// adopting scan's exit recheck (scanPinned) judges adopted views by the
// same per-component aliasing rule as its own collects, discarding any
// that straddle an install of a named component.
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
	rec := o.acquireRecord(tu, target.ids, level)
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
