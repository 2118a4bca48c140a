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
// on field offsets, that the words updates write stay off the lines every
// operation reads and off each other's lines:
//   - no counter shard's written words share a line with any byte of the
//     read-only header (the regs, slots and all slice headers);
//   - no two counter shards' written words share a line;
//   - no two slots' written words (head, walks, visited) share a line.
//
// The address matters, not just the offset: an object this large is
// allocated with a malloc header in front of it, so &o is not 64 B
// aligned.
func TestHeaderLayout(t *testing.T) {
	o := NewLockFree[int64](64)
	header := linesOf(unsafe.Pointer(&o.regs), unsafe.Offsetof(o.all)+unsafe.Sizeof(o.all)-unsafe.Offsetof(o.regs))
	t.Logf("object at %#x (%d mod 64), header lines %d-%d", uintptr(unsafe.Pointer(o)), uintptr(unsafe.Pointer(o))%64,
		header.first, header.last)

	var shards []lineSpan
	for i := range o.shards {
		s := &o.shards[i]
		span := linesOf(unsafe.Pointer(&s.ops), unsafe.Offsetof(s.walksSkipped)+unsafe.Sizeof(s.walksSkipped))
		if span.overlaps(header) {
			t.Fatalf("counter shard %d (lines %d-%d) shares a line with the header (lines %d-%d)",
				i, span.first, span.last, header.first, header.last)
		}
		for j, prev := range shards {
			if span.overlaps(prev) {
				t.Fatalf("counter shards %d and %d share a line", j, i)
			}
		}
		shards = append(shards, span)
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
