// Package spec holds the sequential specification of a partial snapshot
// object and a per-scan atomicity checker for concurrent histories against
// it, which runs online (Checker) or over a recorded history (Check, a
// replay through the same Checker).
//
// The sequential model is an array of components: Update assigns, Scan
// reads, and the array can grow — Grow appends zero-valued components — so
// resizes are part of the checked history, not out-of-band events. For
// sequential (non-overlapping) histories, CheckSequential replays the
// model exactly. For concurrent histories, Check verifies the atomic-cut
// property the implementation promises: for every scan there must exist
// an instant t inside the scan's interval at which every observed value
// could have been the current value of its component. It checks each scan
// on its own and never relates two scans to each other, so it is weaker
// than linearizability: it accepts a later scan that reads an older value
// than an earlier scan did. The check is interval-based and sound — it
// never rejects a linearizable history; its precision relies on written
// values being distinct per component (test workloads encode writer ID +
// sequence number into each value).
//
// The Checker is fed each operation's begin and end as they happen and
// holds only a window: the operations still in flight, the scans waiting
// on them, and per component the writes a scan still to be checked can
// need. A scan is checked once every operation that began before it ended
// has completed, and a write is retired once a later write on its
// component has surely landed before the oldest operation in the window
// began. Its memory is therefore bounded by how long operations stay in
// flight, not by the length of the run, which is what lets snapshotd
// check its whole lifetime of traffic.
package spec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates history operations.
type Kind uint8

const (
	// Update is a write of Vals[i] to component Comps[i].
	Update Kind = iota
	// Scan is a partial scan that observed Vals[i] on component Comps[i].
	Scan
	// Grow appended Delta fresh zero-valued components, leaving Size
	// components. For the checker a Grow only raises the component limit:
	// a grown component has no earlier write, so the zero it starts with is
	// the initial value every component has until its first write
	// definitely completes.
	Grow
)

// Op is one completed operation in a recorded history. Start and End are
// logical timestamps drawn from the Recorder's clock: an op that returned
// before another was invoked has the smaller timestamps, and each
// component write/read took effect at some instant within [Start, End].
type Op[V comparable] struct {
	Kind  Kind
	Start int64
	End   int64
	Comps []int
	Vals  []V

	// UpdateID, on Update ops, is the implementation-assigned operation id
	// (snapshot.LockFree.UpdateOp); 0 = unknown. It gives adopted scan views
	// a target to point back at.
	UpdateID uint64
	// AdoptedFrom, on Scan ops, is the UpdateID of the helping update whose
	// posted view the scan returned; 0 = the scan completed by its own
	// double collect. Checked by CheckProvenance.
	AdoptedFrom uint64

	// Delta, on Grow ops, is the number of components added; Size is the
	// component count the Grow reported, i.e. the count immediately after
	// its linearization point.
	Delta int
	Size  int
}

// Model is the sequential partial snapshot: a plain array of components.
type Model[V comparable] struct {
	vals []V
}

// NewModel returns a sequential model with n zero-valued components.
func NewModel[V comparable](n int) *Model[V] {
	return &Model[V]{vals: make([]V, n)}
}

func (m *Model[V]) Components() int { return len(m.vals) }

// Apply performs a sequential Update.
func (m *Model[V]) Apply(comps []int, vals []V) {
	for i, c := range comps {
		m.vals[c] = vals[i]
	}
}

// Read performs a sequential PartialScan.
func (m *Model[V]) Read(comps []int) []V {
	out := make([]V, len(comps))
	for i, c := range comps {
		out[i] = m.vals[c]
	}
	return out
}

// Grow performs a sequential Grow: k fresh zero-valued components are
// appended and the new count returned. Mirrors snapshot.Object.Grow.
func (m *Model[V]) Grow(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("spec: bad resize: grow by %d components", k)
	}
	m.vals = append(m.vals, make([]V, k)...)
	return len(m.vals), nil
}

// Recorder accumulates a concurrent history. Concurrent goroutines draw
// timestamps with Now (strictly monotonic) and append completed ops with
// Add. Usage per operation:
//
//	start := rec.Now()
//	... perform the operation ...
//	rec.Add(spec.Op[V]{Kind: ..., Start: start, End: rec.Now(), ...})
type Recorder[V comparable] struct {
	clock atomic.Int64
	mu    sync.Mutex
	ops   []Op[V]
}

// Now returns the next logical timestamp.
func (r *Recorder[V]) Now() int64 { return r.clock.Add(1) }

// Add appends a completed operation. The Comps and Vals slices must not be
// mutated afterwards.
func (r *Recorder[V]) Add(op Op[V]) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// Ops returns the recorded history.
func (r *Recorder[V]) Ops() []Op[V] {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op[V](nil), r.ops...)
}

// CheckSequential replays a non-overlapping history against the sequential
// model and requires every scan to match it exactly. It returns an error
// if the history overlaps (use Check for concurrent histories) or if a
// scan disagrees with the model.
func CheckSequential[V comparable](n int, ops []Op[V]) error {
	sorted := append([]Op[V](nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	m := NewModel[V](n)
	prevEnd := int64(math.MinInt64)
	for i, op := range sorted {
		if op.Start <= prevEnd {
			return fmt.Errorf("spec: history is not sequential (op %d starts at %d, before previous end %d)", i, op.Start, prevEnd)
		}
		prevEnd = op.End
		switch op.Kind {
		case Update:
			m.Apply(op.Comps, op.Vals)
		case Scan:
			want := m.Read(op.Comps)
			for j := range want {
				if want[j] != op.Vals[j] {
					return fmt.Errorf("spec: sequential scan %d observed %v on component %d, model has %v",
						i, op.Vals[j], op.Comps[j], want[j])
				}
			}
		case Grow:
			size, err := m.Grow(op.Delta)
			if err != nil {
				return fmt.Errorf("spec: sequential grow %d: %w", i, err)
			}
			if op.Size != 0 && op.Size != size {
				return fmt.Errorf("spec: sequential grow %d reported %d components, model has %d", i, op.Size, size)
			}
		}
	}
	return nil
}

// interval is a closed feasibility window [lo, hi] of logical time.
type interval struct{ lo, hi int64 }

// write is one component write extracted from an Update op.
type write[V comparable] struct {
	start, end int64
	val        V
}

// Check verifies a concurrent history: every scan must admit an instant t
// in [scan.Start, scan.End] at which each observed value was plausibly the
// current value of its component. A value written by write w is plausible
// at t iff w.start <= t (the write may have taken effect) and no other
// write on the same component definitely landed after w and completed
// before t. The zero value of V is additionally plausible until the first
// write on the component has definitely completed.
//
// The component universe grows: n is the initial count, and recorded Grow
// ops raise the checker's id limit to the largest universe any Grow
// reported. A Grow writes nothing the check needs: a component it creates
// has no earlier write, so the zero observed on it is the initial value,
// admissible until the component's first write definitely completes.
//
// Check replays the history's begin and end events, in timestamp order,
// through a Checker: the online check and the batch one are the same code.
// Every op must end no earlier than it starts.
func Check[V comparable](n int, ops []Op[V]) error {
	type event struct {
		at  int64
		end int // 0 begin, 1 end
		op  int
	}
	events := make([]event, 0, 2*len(ops))
	for i, op := range ops {
		if op.End < op.Start {
			return fmt.Errorf("spec: op %d ends at %d, before it starts at %d", i, op.End, op.Start)
		}
		events = append(events, event{op.Start, 0, i}, event{op.End, 1, i})
	}
	// Begins sort before ends at the same instant: the closed intervals
	// overlap there.
	slices.SortFunc(events, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), a.end-b.end, a.op-b.op)
	})
	c := NewChecker[V](n)
	tickets := make([]Ticket, len(ops))
	for _, e := range events {
		if e.end == 1 {
			c.End(tickets[e.op], ops[e.op])
		} else {
			tickets[e.op] = c.Begin(e.at)
		}
	}
	return c.Err()
}

// CheckProvenance verifies the helping metadata of a history: every scan
// that reports adopting a helped view must name an update that (a) appears
// in the history, (b) was concurrent with the scan — help is posted inside
// the scan's interval, so the helper cannot have returned before the scan
// began nor been invoked after it returned — and (c) intersects the scan's
// component set, because the protocol only obliges an updater to help scans
// it is about to obstruct (locality). It complements Check, which validates
// the values themselves.
func CheckProvenance[V comparable](ops []Op[V]) error {
	byID := make(map[uint64]Op[V])
	for _, op := range ops {
		if op.Kind == Update && op.UpdateID != 0 {
			byID[op.UpdateID] = op
		}
	}
	for si, op := range ops {
		if op.Kind != Scan || op.AdoptedFrom == 0 {
			continue
		}
		u, known := byID[op.AdoptedFrom]
		if !known {
			return fmt.Errorf("spec: scan %d adopted a view from update op %d, which is not in the history", si, op.AdoptedFrom)
		}
		if u.End < op.Start || u.Start > op.End {
			return fmt.Errorf("spec: scan %d (interval [%d,%d]) adopted help from update op %d (interval [%d,%d]), which was not concurrent with it",
				si, op.Start, op.End, op.AdoptedFrom, u.Start, u.End)
		}
		if !intersect(u.Comps, op.Comps) {
			return fmt.Errorf("spec: scan %d over %v adopted help from update op %d over %v, which is disjoint from it",
				si, op.Comps, op.AdoptedFrom, u.Comps)
		}
	}
	return nil
}

func intersect(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
