package snapshot

import "partialsnapshot/internal/sched"

// This file is the updater side of the paper's helping protocol: finding
// announced scans that intersect an update's write set via the sharded
// registry, and the recursive embedded scans that serve them.

// helpView is a consistent view of a record's component set posted by a
// helping updater, stamped with how deep in the help chain the clean
// double collect that produced it ran.
type helpView[V any] struct {
	vals  []V
	depth int // chain level of the clean double collect behind the view
}

// helpIntersectingScans consults u's registry for every component the
// update is about to write and, for each live record found, completes an
// embedded scan of that record's set and posts the view. A record enrolled
// in several of the walked slots is met once per shared slot; help serves
// it at the first meeting, and every later one finds it done or helped.
// Disjoint scans live in slots this update never touches, so they cost it
// nothing and are never observed — unlike the earlier global announcement
// stack, which every update walked end to end.
//
// A consultation is one load of the slot's head, inline: a nil head means
// no scan is enrolled there, and the update counts a skip and moves on
// without a call. Only a non-nil head is walked. A scan enrolled in
// component c either linked its enrollment before our head load (we walk
// c's slot and find it) or after (our consultation of c precedes its
// enrollment, making this update one of the finitely many pre-walk
// updates per component the termination argument in embeddedScan already
// tolerates). The skips go in one atomic add to the slot of ids[0], a
// line only operations naming that component write, so the quiescent
// update path writes nothing outside its own components.
func (o *LockFree[V]) helpIntersectingScans(ids []int) {
	var skipped uint64
	for _, id := range ids {
		o.yield(sched.PreSlotWalk, id)
		s := &o.slots[id]
		head := s.head.Load()
		if head == nil || (o.mut.staleHeadEmpty && head.stale()) {
			skipped++
			continue
		}
		o.walkSlot(s, id, head)
	}
	o.slots[ids[0]].skipped.Add(skipped)
}

// help serves one live record a walk found: unless help is already
// posted, it runs an embedded scan of the record's set and posts the view.
// After help returns, rec.done || rec.help != nil holds: embeddedScan
// reports ok=false only when one of the two holds, and on ok=true the CAS
// either posts this view or loses to another helper's. So the update
// keeps no list of the records it has served: meeting rec again through a
// later shared slot costs one load here, or nothing if the walk finds rec
// retired. The one exception is the helpBound mutation seam, which
// abandons a record with neither set; there a second meeting runs a
// second bounded embedded scan.
func (o *LockFree[V]) help(rec *scanRecord[V]) {
	if rec.help.Load() != nil {
		return
	}
	o.yield(sched.PreHelpScan, rec.level+1)
	if view, depth, ok := o.embeddedScan(rec); ok {
		o.yield(sched.PreHelpPost, rec.level)
		if rec.help.CompareAndSwap(nil, &helpView[V]{vals: view, depth: depth}) {
			o.helpsPosted.Add(1)
			atomicMax(&o.maxDepth, int64(depth))
		}
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
func (o *LockFree[V]) embeddedScan(target *scanRecord[V]) (view []V, depth int, ok bool) {
	level := target.level + 1
	failures := 0
	// Fast path: try one unannounced double collect first. Collects here
	// start from a nil dst: a view posted as help is never caller memory.
	if vals, ok := o.doubleCollect(nil, target.ids, level); ok {
		return vals, level, true
	}
	o.scanRetries.Add(1)
	failures++
	if o.mut.helpBound > 0 && failures >= o.mut.helpBound {
		return nil, 0, false // injected mutation: abandon the scanner
	}
	rec := newRecord[V](target.ids, level)
	o.announce(rec)
	defer o.retire(rec)
	o.yield(sched.PostAnnounce, level)
	for {
		if target.done.Load() || target.help.Load() != nil {
			return nil, 0, false
		}
		if vals, ok := o.doubleCollect(nil, rec.ids, level); ok {
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
			// No copy: a posted view is never written again, and its one
			// reader is the owner of the record it is posted on. Handing
			// h.vals on posts the same slice on target in turn, whose owner
			// reads it or hands it on again; the level-0 scanner at the end
			// of the chain copies it into its own dst.
			return h.vals, h.depth, true
		}
	}
}
