package snapshot

import (
	"testing"
	"unsafe"
)

// lineSpan is the range of 64 B cache lines [first, last] that the size
// bytes at p occupy, computed from the real address.
type lineSpan struct{ first, last uintptr }

func linesOf(p unsafe.Pointer, size uintptr) lineSpan {
	a := uintptr(p)
	return lineSpan{a / 64, (a + size - 1) / 64}
}

func (s lineSpan) overlaps(t lineSpan) bool { return s.first <= t.last && t.first <= s.last }

// TestHeaderLayout checks, on a live object's real addresses rather than
// on field offsets, that the words operations write stay off the lines
// every operation reads and off each other's lines:
//   - no counter the contended paths write (scanRetries through live)
//     shares a line with any byte of the read-only header (the regs, slots
//     and all slice headers);
//   - no two slots' written words (head, walks, skipped, visited) share a
//     line, so operations on different components never write one line.
//
// The address matters, not just the offset: the slot array is allocated
// with a malloc header in front of it, so its first slot is not 64 B
// aligned.
func TestHeaderLayout(t *testing.T) {
	o := NewLockFree[int64](64)
	header := linesOf(unsafe.Pointer(&o.regs), unsafe.Offsetof(o.all)+unsafe.Sizeof(o.all)-unsafe.Offsetof(o.regs))
	counters := linesOf(unsafe.Pointer(&o.scanRetries), unsafe.Offsetof(o.live)+unsafe.Sizeof(o.live)-unsafe.Offsetof(o.scanRetries))
	t.Logf("object at %#x (%d mod 64, %d B), header lines %d-%d, counter lines %d-%d; slots at %d mod 64",
		uintptr(unsafe.Pointer(o)), uintptr(unsafe.Pointer(o))%64, unsafe.Sizeof(*o),
		header.first, header.last, counters.first, counters.last, uintptr(unsafe.Pointer(&o.slots[0]))%64)
	if counters.overlaps(header) {
		t.Fatalf("the counters (lines %d-%d) share a line with the header (lines %d-%d)",
			counters.first, counters.last, header.first, header.last)
	}

	var slots []lineSpan
	for i := range o.slots {
		s := &o.slots[i]
		span := linesOf(unsafe.Pointer(&s.head), unsafe.Offsetof(s.visited)+unsafe.Sizeof(s.visited))
		for j, prev := range slots {
			if span.overlaps(prev) {
				t.Fatalf("slots %d and %d share a line", j, i)
			}
		}
		slots = append(slots, span)
	}
}
