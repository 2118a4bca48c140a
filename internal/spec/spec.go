// Package spec holds the sequential specification of a partial snapshot
// object and a per-scan atomicity checker for concurrent histories against
// it, which runs online (Checker) or over a recorded history (Check, a
// replay through the same Checker).
//
// The sequential model is a fixed array of n components: Update assigns
// and Scan reads. For sequential (non-overlapping) histories, CheckSequential replays the
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
// write on the component has definitely completed. An op naming a
// component outside [0, n) is a violation.
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
