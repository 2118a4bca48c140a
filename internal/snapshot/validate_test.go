package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// TestValidateIDsBitmaskPath exercises the stack-bitmask duplicate check
// used for sets wider than 32 on objects up to maxBitmaskComponents, and
// the heap bitmask above it.
func TestValidateIDsBitmaskPath(t *testing.T) {
	// Valid wide set on a mid-size object.
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i * 3
	}
	if err := validateIDs(256, ids); err != nil {
		t.Fatalf("valid 64-id set rejected: %v", err)
	}
	// Duplicate and out-of-range detection on the bitmask path.
	ids[63] = ids[0]
	if err := validateIDs(256, ids); !errors.Is(err, ErrBadComponent) {
		t.Fatalf("duplicate on bitmask path: error = %v, want ErrBadComponent", err)
	}
	ids[63] = 256
	if err := validateIDs(256, ids); !errors.Is(err, ErrBadComponent) {
		t.Fatalf("out-of-range on bitmask path: error = %v, want ErrBadComponent", err)
	}
	// Word-boundary duplicates (same bit word, different words).
	if err := validateIDs(128, []int{63, 64, 65, 1, 2, 3, 4, 5, 6, 7, 8, 9,
		10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 63}); !errors.Is(err, ErrBadComponent) {
		t.Fatal("duplicate across bitmask words not caught")
	}
	// Heap bitmask for objects too large for the stack one.
	big := make([]int, 40)
	for i := range big {
		big[i] = i * 1000
	}
	if err := validateIDs(maxBitmaskComponents*10, big); err != nil {
		t.Fatalf("valid set on huge object rejected: %v", err)
	}
	big[39] = big[0]
	if err := validateIDs(maxBitmaskComponents*10, big); !errors.Is(err, ErrBadComponent) {
		t.Fatalf("duplicate on heap-bitmask path: error = %v, want ErrBadComponent", err)
	}
}

// TestValidateIDsHeapFallbackBoundary walks the seam between the
// stack-bitmask fast path and the heap-bitmask fallback: n equal to
// maxBitmaskComponents (inclusive — the highest id, 4095, must land in the
// stack bitmask's last word) and n just above it (every wide set now takes
// the heap bitmask), exercising accept, duplicate, out-of-range and negative ids
// on both sides of the boundary.
func TestValidateIDsHeapFallbackBoundary(t *testing.T) {
	wideSet := func(n int) []int {
		// 40 ids (> 32, so never the quadratic path) spread to the top of
		// the range, ending exactly at n-1.
		ids := make([]int, 40)
		for i := range ids {
			ids[i] = (n - 1) - i*(n/41)
		}
		return ids
	}
	for _, n := range []int{maxBitmaskComponents, maxBitmaskComponents + 1, maxBitmaskComponents * 3} {
		ids := wideSet(n)
		if err := validateIDs(n, ids); err != nil {
			t.Fatalf("n=%d: valid wide set rejected: %v", n, err)
		}
		dup := append([]int(nil), ids...)
		dup[len(dup)-1] = dup[0] // duplicate of the top id, n-1
		if err := validateIDs(n, dup); !errors.Is(err, ErrBadComponent) {
			t.Fatalf("n=%d: duplicate of id %d: error = %v, want ErrBadComponent", n, dup[0], err)
		}
		over := append([]int(nil), ids...)
		over[len(over)-1] = n
		if err := validateIDs(n, over); !errors.Is(err, ErrBadComponent) {
			t.Fatalf("n=%d: out-of-range id %d: error = %v, want ErrBadComponent", n, n, err)
		}
		neg := append([]int(nil), ids...)
		neg[len(neg)-1] = -1
		if err := validateIDs(n, neg); !errors.Is(err, ErrBadComponent) {
			t.Fatalf("n=%d: negative id: error = %v, want ErrBadComponent", n, err)
		}
	}
}

// TestValidateIDsHeapFallbackThroughPublicAPI drives the heap fallback the
// way a real caller hits it: a full Scan of an object wider than the
// bitmask bound validates all n ids through the fallback, and wide invalid
// sets surface the typed error from both operations.
func TestValidateIDsHeapFallbackThroughPublicAPI(t *testing.T) {
	const n = maxBitmaskComponents + 8
	o := NewLockFree[int64](n)
	vals, err := o.Scan()
	if err != nil {
		t.Fatalf("full scan of a %d-component object: %v", n, err)
	}
	if len(vals) != n {
		t.Fatalf("full scan returned %d values, want %d", len(vals), n)
	}
	ids := make([]int, 40)
	wvals := make([]int64, 40)
	for i := range ids {
		ids[i] = i * 100
		wvals[i] = int64(i + 1)
	}
	if err := o.Update(ids, wvals); err != nil {
		t.Fatalf("wide update on a >bitmask object: %v", err)
	}
	ids[39] = ids[0]
	if err := o.Update(ids, wvals); !errors.Is(err, ErrBadComponent) {
		t.Fatalf("duplicate wide update: error = %v, want ErrBadComponent", err)
	}
	if _, err := o.PartialScan(ids); !errors.Is(err, ErrBadComponent) {
		t.Fatalf("duplicate wide scan: error = %v, want ErrBadComponent", err)
	}
	ids[39] = n
	if _, err := o.PartialScan(ids); !errors.Is(err, ErrBadComponent) {
		t.Fatalf("out-of-range wide scan: error = %v, want ErrBadComponent", err)
	}
}

// TestValidateIDsBoundFollowsPinnedEpoch grows an object across the
// stack-bitmask/heap-bitmask seam — maxBitmaskComponents-1, exactly
// maxBitmaskComponents, then one past it — and checks at every size that
// the validation bound is the PINNED epoch's component count, not the
// construction-time one: the frontier id flips from rejected to accepted
// at the Grow that legitimises it, and wide sets pick the right duplicate
// detector on both sides of the seam.
func TestValidateIDsBoundFollowsPinnedEpoch(t *testing.T) {
	const seam = maxBitmaskComponents // 4096
	o := NewLockFree[int64](seam - 1)

	// A >32-wide set ending at the current frontier, regenerated per size
	// so it always exercises the wide-set (non-quadratic) detectors.
	wideTo := func(top int) []int {
		ids := make([]int, 40)
		for i := range ids {
			ids[i] = top - i*((top+1)/41)
		}
		return ids
	}

	for step, n := range []int{seam - 1, seam, seam + 1} {
		if got := o.Components(); got != n {
			t.Fatalf("step %d: Components() = %d, want %d", step, got, n)
		}
		// The frontier id n-1 is valid; n is this epoch's first bad id.
		if _, err := o.PartialScan([]int{n - 1}); err != nil {
			t.Fatalf("n=%d: frontier id %d rejected: %v", n, n-1, err)
		}
		if _, err := o.PartialScan([]int{n}); !errors.Is(err, ErrBadComponent) {
			t.Fatalf("n=%d: id %d accepted beyond the pinned bound: %v", n, n, err)
		}
		// Wide sets: valid at the frontier, duplicates caught on whichever
		// detector this epoch's size selects (stack bitmask at and below
		// the seam, heap bitmask above).
		ids := wideTo(n - 1)
		if err := validateIDs(n, ids); err != nil {
			t.Fatalf("n=%d: valid wide set rejected: %v", n, err)
		}
		dup := append([]int(nil), ids...)
		dup[len(dup)-1] = dup[0]
		if err := validateIDs(n, dup); !errors.Is(err, ErrBadComponent) {
			t.Fatalf("n=%d: wide duplicate of id %d missed: %v", n, dup[0], err)
		}
		if step < 2 {
			if size, err := o.Grow(1); err != nil || size != n+1 {
				t.Fatalf("Grow(1) at n=%d = %d, %v; want %d, nil", n, size, err, n+1)
			}
			// The id that was just out of range is now writable.
			if err := o.Update([]int{n}, []int64{int64(n)}); err != nil {
				t.Fatalf("id %d rejected immediately after the Grow that added it: %v", n, err)
			}
		}
	}

}

// TestValidateIDsFullWidthDuplicate16384 validates a full-width set at
// n=16,384 — the shape of a full Scan of a large object, four times the
// stack bitmask's reach — and then the same set with a duplicate of its top
// id planted last, where only a complete bitmask can catch it.
func TestValidateIDsFullWidthDuplicate16384(t *testing.T) {
	const n = 16384
	ids := allIDs(n)
	if err := validateIDs(n, ids); err != nil {
		t.Fatalf("full-width set rejected: %v", err)
	}
	ids[n-1] = n - 2
	err := validateIDs(n, ids)
	if !errors.Is(err, ErrBadComponent) || err.Error() != referenceValidateIDs(n, ids).Error() {
		t.Fatalf("full-width duplicate: error = %v, want %v", err, referenceValidateIDs(n, ids))
	}
}

// TestValidateIDsAllocationFree pins the perf fix: validating a wide set on
// an object within the stack-bitmask bound must not allocate.
func TestValidateIDsAllocationFree(t *testing.T) {
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i * 31
	}
	if allocs, _ := MallocsPerRun(t, func() error { return validateIDs(2048, ids) }); allocs != 0 {
		t.Fatalf("validateIDs allocated %v times per run on the bitmask path, want 0", allocs)
	}
}

// FuzzValidateIDs checks validateIDs against a map-based reference on every
// tier it dispatches to: the one-word bitmask (n <= 64), the quadratic scan
// (at most 32 ids), the stack bitmask (n <= maxBitmaskComponents) and the
// heap bitmask above it. Each pair of input bytes is one id, decoded into
// [-1, n] so the fuzzer reaches negative, in-range and just-past-the-end
// ids alike; the verdict, its ErrBadComponent wrapping and its message
// (which names the first offending id) must all match the reference.
func FuzzValidateIDs(f *testing.F) {
	encode := func(ids ...int) []byte {
		b := make([]byte, 0, 2*len(ids))
		for _, id := range ids {
			b = binary.LittleEndian.AppendUint16(b, uint16(id+1))
		}
		return b
	}
	span := func(from, count, step int) []int {
		ids := make([]int, count)
		for i := range ids {
			ids[i] = from + i*step
		}
		return ids
	}
	for _, n := range []int{1, 8, 64, 65, 100, maxBitmaskComponents, maxBitmaskComponents + 1, 3 * maxBitmaskComponents} {
		f.Add(n, encode())
		f.Add(n, encode(0))
		f.Add(n, encode(n-1, -1))
		f.Add(n, encode(0, n))
		f.Add(n, encode(span(0, min(n, 32), 1)...))               // widest set of the small tiers
		f.Add(n, encode(span(n-1, min(n, 40), -max(1, n/41))...)) // wide set ending at n-1
		f.Add(n, encode(append(span(0, min(n, 40), 1), 0)...))    // trailing duplicate
	}
	f.Fuzz(func(t *testing.T, n int, data []byte) {
		if n < 1 || n > 3*maxBitmaskComponents {
			n = 1 + int(uint(n)%(3*maxBitmaskComponents))
		}
		ids := make([]int, len(data)/2)
		for i := range ids {
			ids[i] = int(binary.LittleEndian.Uint16(data[2*i:]))%(n+2) - 1
		}
		got, want := validateIDs(n, ids), referenceValidateIDs(n, ids)
		if (got == nil) != (want == nil) || (got != nil && (!errors.Is(got, ErrBadComponent) || got.Error() != want.Error())) {
			t.Fatalf("validateIDs(%d, %v) = %v, reference %v", n, ids, got, want)
		}
	})
}

// referenceValidateIDs is validateIDs written the obvious way.
func referenceValidateIDs(n int, ids []int) error {
	if len(ids) == 0 {
		return fmt.Errorf("%w: empty component set", ErrBadComponent)
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("%w: component %d out of range [0,%d)", ErrBadComponent, id, n)
		}
		if seen[id] {
			return fmt.Errorf("%w: duplicate component %d", ErrBadComponent, id)
		}
		seen[id] = true
	}
	return nil
}
