package spec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Checker is the atomic-cut check of Check, run online: it is fed each
// operation's begin and end as they happen and convicts a scan as soon as
// its verdict is decided, holding only the operations still in the
// window instead of the whole history.
//
// The caller supplies logical timestamps. Begin must be called in
// non-decreasing start order, End in non-decreasing end order, and a
// Begin at time t must precede every End at time t (a caller drawing
// both from one counter under one lock gets all of this for free). A
// Checker is not safe for concurrent use.
//
// Two facts keep the window short and every verdict equal to the batch
// check's:
//
//   - A scan's verdict depends only on writes that began no later than it
//     ended (a later write can neither produce an observed value inside
//     the scan's interval nor close a window before the scan ends), so the
//     scan is checked as soon as every operation begun by its end has
//     ended.
//   - A write w is retired once another write on the same component began
//     after w ended and itself ended before the oldest operation in the
//     window began: every scan still to be checked starts after that, so
//     w's window is closed for all of them, and any write w could close a
//     window for is retired with it.
//
// After the first violation the Checker keeps the error and ignores
// further events.
type Checker[V comparable] struct {
	n     int // component ids in [0, n) are in range
	comps []component[V]

	window fifo[slot[V]] // begun ops not yet retired, in Begin order
	scans  fifo[Ticket]  // ended scans not yet checked, in End order
	begun  Ticket        // Begin calls so far
	ended  Ticket        // ops [0, ended) have all ended

	recorded, checked, retained int
	err                         error

	// retry lists the components a retire left holding more than one
	// write while the window was open; they are retired again once it
	// drains, when no write a future scan needs can be older than a
	// component's latest write.
	retry []int

	// Scratch for checkScan: ivs[bounds[i]:bounds[i+1]] are the windows of
	// the scan's i-th component; acc and next hold their running
	// intersection.
	ivs, acc, next []interval
	bounds         []int
}

// Ticket names one begun operation.
type Ticket uint64

// CheckerStatus is a Checker's progress.
type CheckerStatus struct {
	// Begun counts Begin calls; the first Ended of them have all ended.
	Begun, Ended Ticket
	// Recorded counts ended operations (aborted ones excluded), Checked
	// those whose verdict is in, and Pending those still in the window.
	Recorded, Checked, Pending int
	// Retained counts the writes the Checker still holds.
	Retained int
}

// component is one component's write history, cut to the writes a future
// scan can still need.
type component[V comparable] struct {
	writes []write[V] // retained writes, in End order
	minEnd int64      // earliest end of any write ever, retired ones included
	listed bool       // on the Checker's retry list
}

// slot is one operation in the window. Slots are recycled: a later op
// reuses the slot's slices.
type slot[V comparable] struct {
	start, end int64
	ended      bool   // End or Abort was called
	done       bool   // ended, and checked if a scan
	sees       Ticket // scans: Begin calls made before the scan ended
	comps      []int  // scans: a copy of the named components
	vals       []V    // scans: a copy of the observed values
}

// maxKeptLen caps the slices a slot keeps for reuse, so one wide scan does
// not pin its copy for the rest of the run.
const maxKeptLen = 4096

// NewChecker returns a Checker for an object with n components.
func NewChecker[V comparable](n int) *Checker[V] {
	return &Checker[V]{n: n}
}

// Begin records that an operation was invoked at logical time start.
func (c *Checker[V]) Begin(start int64) Ticket {
	t := c.begun
	c.begun++
	if c.err == nil {
		s := c.window.push()
		*s = slot[V]{start: start, comps: s.comps[:0], vals: s.vals[:0]}
	}
	return t
}

// End records that operation t completed as op at logical time op.End;
// op.Start is ignored in favour of the time given to Begin. The Checker
// keeps no reference to op's slices.
func (c *Checker[V]) End(t Ticket, op Op[V]) {
	if c.err != nil {
		return
	}
	s := c.slot(t)
	s.end, s.ended = op.End, true
	if s.end < s.start {
		c.fail(fmt.Errorf("spec: op %d ends at %d, before it starts at %d", t, s.end, s.start))
		return
	}
	c.recorded++
	switch op.Kind {
	case Update:
		if len(op.Vals) != len(op.Comps) {
			c.fail(fmt.Errorf("spec: malformed update op: %d values for %d components", len(op.Vals), len(op.Comps)))
			return
		}
		for i, comp := range op.Comps {
			if !c.name(comp) {
				return
			}
			c.write(comp, s.start, s.end, op.Vals[i])
		}
	case Scan:
		if len(op.Vals) != len(op.Comps) {
			c.fail(fmt.Errorf("spec: malformed scan op: %d values for %d components", len(op.Vals), len(op.Comps)))
			return
		}
		for _, comp := range op.Comps {
			if !c.name(comp) {
				return
			}
		}
		s.comps = append(s.comps, op.Comps...)
		s.vals = append(s.vals, op.Vals...)
		s.sees = c.begun
		*c.scans.push() = t
	}
	if op.Kind != Scan {
		s.done = true
		c.checked++
	}
	c.advance()
	// Retire only now: advance may have moved the window's front, which
	// bounds what a scan still to be checked can need.
	if c.err == nil && op.Kind == Update {
		for _, comp := range op.Comps {
			c.retire(comp)
		}
	}
}

// Abort withdraws operation t: it returned without taking effect (the
// object rejected it), so it is not part of the history.
func (c *Checker[V]) Abort(t Ticket) {
	if c.err != nil {
		return
	}
	s := c.slot(t)
	s.ended, s.done = true, true
	c.advance()
}

// Err returns the first violation found, or nil.
func (c *Checker[V]) Err() error { return c.err }

// Status reports the Checker's progress. Once a violation has stopped the
// check, every begun op counts as ended.
func (c *Checker[V]) Status() CheckerStatus {
	st := CheckerStatus{Begun: c.begun, Ended: c.ended, Recorded: c.recorded,
		Checked: c.checked, Pending: c.window.n, Retained: c.retained}
	if c.err != nil {
		st.Ended = c.begun
	}
	return st
}

func (c *Checker[V]) fail(err error) {
	c.err = err
	c.comps, c.window, c.scans, c.retry = nil, fifo[slot[V]]{}, fifo[Ticket]{}, nil
	c.ivs, c.bounds, c.acc, c.next = nil, nil, nil, nil
	c.retained = 0
}

// slot returns the slot of operation t, which must still be in the window.
func (c *Checker[V]) slot(t Ticket) *slot[V] {
	return c.window.at(c.window.n - int(c.begun-t))
}

// name notes that an op named comp and grows the per-component state to
// cover it; an id outside [0, n) is a violation.
func (c *Checker[V]) name(comp int) bool {
	if comp < 0 || comp >= c.n {
		c.fail(fmt.Errorf("spec: an op names component %d, out of range [0,%d)", comp, c.n))
		return false
	}
	for len(c.comps) <= comp {
		c.comps = append(c.comps, component[V]{minEnd: math.MaxInt64})
	}
	return true
}

func (c *Checker[V]) write(comp int, start, end int64, val V) {
	cs := &c.comps[comp]
	cs.writes = append(cs.writes, write[V]{start: start, end: end, val: val})
	cs.minEnd = min(cs.minEnd, end)
	c.retained++
}

// advance moves the ended watermark, checks every scan it decides, and
// drops the finished prefix of the window.
func (c *Checker[V]) advance() {
	for c.ended < c.begun && c.slot(c.ended).ended {
		c.ended++
	}
	for c.scans.n > 0 {
		t := *c.scans.at(0)
		s := c.slot(t)
		if s.sees > c.ended {
			break
		}
		c.scans.pop()
		if err := c.checkScan(t, s); err != nil {
			c.fail(err)
			return
		}
		s.done = true
		c.checked++
	}
	for c.window.n > 0 && c.window.at(0).done {
		if s := c.window.at(0); cap(s.comps) > maxKeptLen || cap(s.vals) > maxKeptLen {
			s.comps, s.vals = nil, nil
		}
		c.window.pop()
	}
	if c.window.n == 0 {
		for _, comp := range c.retry {
			c.comps[comp].listed = false
			c.retire(comp)
		}
		c.retry = c.retry[:0]
	}
}

// retire drops the writes on comp that no scan still to be checked can
// need: those that ended before another write on comp began which itself
// ended before the oldest op in the window began.
func (c *Checker[V]) retire(comp int) {
	oldest := int64(math.MaxInt64)
	if c.window.n > 0 {
		oldest = c.window.at(0).start
	}
	ws := c.comps[comp].writes
	last := int64(math.MinInt64) // latest start of a write that ended before oldest
	for _, w := range ws {
		if w.end >= oldest {
			break
		}
		last = max(last, w.start)
	}
	k := 0
	for k < len(ws) && ws[k].end < last {
		k++
	}
	n := copy(ws, ws[k:])
	clear(ws[n:])
	cs := &c.comps[comp]
	cs.writes = ws[:n]
	c.retained -= k
	if n > 1 && c.window.n > 0 && !cs.listed {
		cs.listed = true
		c.retry = append(c.retry, comp)
	}
}

// checkScan applies Check's atomic-cut test to scan t: each observed value
// gets the windows in which it was plausibly current, clipped to the
// scan's interval, and some one instant must lie in a window of every
// observed component.
func (c *Checker[V]) checkScan(t Ticket, s *slot[V]) error {
	var zero V
	c.ivs, c.bounds = c.ivs[:0], append(c.bounds[:0], 0)
	for i, comp := range s.comps {
		v, cs := s.vals[i], &c.comps[comp]
		if v == zero {
			// The initial value: current until some write has surely landed.
			c.clip(s, math.MinInt64, cs.minEnd)
		}
		for _, w := range cs.writes {
			if w.val != v {
				continue
			}
			// Current from when w may have landed until a write that began
			// after w ended has surely landed.
			hi := int64(math.MaxInt64)
			for _, x := range cs.writes {
				if x.start > w.end {
					hi = min(hi, x.end)
				}
			}
			c.clip(s, w.start, hi)
		}
		if len(c.ivs) == c.bounds[len(c.bounds)-1] {
			return fmt.Errorf("spec: scan op %d (interval [%d,%d]) observed %v on component %d, which no admissible write produced",
				t, s.start, s.end, v, comp)
		}
		c.bounds = append(c.bounds, len(c.ivs))
	}
	if !c.commonInstant() {
		return fmt.Errorf("spec: scan op %d (interval [%d,%d]) over components %v observed %v: no single instant admits all values (torn scan)",
			t, s.start, s.end, s.comps, s.vals)
	}
	if cap(c.ivs) > maxKeptLen || cap(c.bounds) > maxKeptLen {
		c.ivs, c.bounds = nil, nil
	}
	return nil
}

// clip adds the window [lo, hi], cut to scan s's interval, unless the cut
// leaves it empty.
func (c *Checker[V]) clip(s *slot[V], lo, hi int64) {
	lo, hi = max(lo, s.start), min(hi, s.end)
	if lo <= hi {
		c.ivs = append(c.ivs, interval{lo: lo, hi: hi})
	}
}

// commonInstant reports whether one instant lies in some window of every
// component of the scan just collected. It intersects the components'
// window sets in turn, each as a sorted list of disjoint windows, so the
// cost is linear in the number of windows.
func (c *Checker[V]) commonInstant() bool {
	acc := append(c.acc[:0], interval{lo: math.MinInt64, hi: math.MaxInt64})
	next := c.next[:0]
	for i := 0; i+1 < len(c.bounds) && len(acc) > 0; i++ {
		ws := disjoint(c.ivs[c.bounds[i]:c.bounds[i+1]])
		next = next[:0]
		for a, w := 0, 0; a < len(acc) && w < len(ws); {
			if lo, hi := max(acc[a].lo, ws[w].lo), min(acc[a].hi, ws[w].hi); lo <= hi {
				next = append(next, interval{lo: lo, hi: hi})
			}
			if acc[a].hi < ws[w].hi {
				a++
			} else {
				w++
			}
		}
		acc, next = next, acc
	}
	c.acc, c.next = acc, next
	if cap(acc) > maxKeptLen || cap(next) > maxKeptLen {
		c.acc, c.next = nil, nil
	}
	return len(acc) > 0
}

// disjoint sorts ws by start and merges overlapping windows, in place.
func disjoint(ws []interval) []interval {
	if len(ws) < 2 {
		return ws
	}
	slices.SortFunc(ws, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	out := ws[:1]
	for _, w := range ws[1:] {
		if last := &out[len(out)-1]; w.lo <= last.hi {
			last.hi = max(last.hi, w.hi)
		} else {
			out = append(out, w)
		}
	}
	return out
}

// fifo is a growable ring buffer. Its elements are recycled: push returns
// the tail element with whatever it last held.
type fifo[T any] struct {
	buf     []T
	head, n int
}

func (f *fifo[T]) push() *T {
	if f.n == len(f.buf) {
		buf := make([]T, max(16, 2*len(f.buf)))
		for i := range f.n {
			buf[i] = *f.at(i)
		}
		f.buf, f.head = buf, 0
	}
	f.n++
	return f.at(f.n - 1)
}

func (f *fifo[T]) at(i int) *T { return &f.buf[(f.head+i)%len(f.buf)] }

func (f *fifo[T]) pop() {
	f.head = (f.head + 1) % len(f.buf)
	f.n--
}
