// Package snapshot implements the partial snapshot object of Attiya,
// Guerraoui and Ruppert, "Partial snapshot objects" (SPAA 2008).
//
// A snapshot object holds n components. A classic (full) snapshot lets a
// scanner read all n components atomically. A *partial* snapshot object
// instead exposes
//
//	Update(componentIDs, values)
//	PartialScan(componentIDs) -> values
//
// where both operations name only the components they care about. The point
// of the paper is locality: a partial scan reads — and is obstructed by —
// only the components it names, so operations on disjoint component sets do
// not interfere with each other at all.
//
// Two implementations share the Object interface:
//
//   - LockFree: per-component registers (atomic.Pointer
//     cells) with the paper's full wait-free helping mechanism. Scanners
//     announce the component set they are reading by enrolling a record in
//     a per-component sharded registry (one padded slot per component; see
//     registry.go), so an updater consults only the slots of the
//     components it is about to write and disjoint operations never touch
//     shared state. An updater that is about to overwrite an announced
//     component first completes an embedded scan of the announced set and
//     posts it as a help record, so an obstructed scanner adopts a
//     consistent view instead of retrying forever. The embedded scan is
//     itself announced and helpable (help records chain), which is what
//     makes helping — and therefore every partial scan — wait-free; see
//     the termination argument on embeddedScan. The type name predates the
//     wait-freedom restoration. Every scan takes this one path: a double
//     collect whose first collect, for up to 16 components, lives in a
//     stack array (see doubleCollect in scan.go), then announce-and-help
//     on obstruction.
//   - RWMutex: a coarse-grained reference implementation used as the
//     correctness baseline and benchmark foil.
//
// Semantics: PartialScan is atomic — the returned values all coexisted in
// the object at a single instant inside the scan's interval. A
// multi-component Update is applied as a sequence of single-component
// atomic writes (component updates are individually linearizable; the batch
// as a whole is not, matching the single-writer-per-component granularity
// of the paper). The RWMutex implementation is strictly stronger (batches
// are atomic too); the sequential spec in internal/spec admits both.
package snapshot

import (
	"errors"
	"fmt"
)

// ErrBadComponent is returned (wrapped, with detail) when a component-ID
// set handed to Update or PartialScan is empty, contains an out-of-range
// ID, contains duplicates, or does not match the number of values. "Out of
// range" means out of range of the epoch the operation pinned: an id that
// a concurrent Grow is adding may draw this error, and the rejection
// linearizes at the pin, before that Grow. The universe never shrinks, so
// an id that was valid once stays valid.
var ErrBadComponent = errors.New("snapshot: bad component set")

// ErrBadResize is returned (wrapped, with detail) when a Grow amount is
// not positive or would overflow int.
var ErrBadResize = errors.New("snapshot: bad resize")

// Object is the partial snapshot API shared by all implementations.
type Object[V any] interface {
	// Components returns n, the number of components in the object
	// (the current epoch's count, for resizable implementations).
	Components() int
	// Update atomically writes vals[i] to component ids[i] for each i.
	// Each component write is individually linearizable; see the package
	// comment for batch semantics.
	Update(ids []int, vals []V) error
	// PartialScan returns the values of the named components as they
	// coexisted at one instant within the call's interval. The result is
	// ordered like ids.
	PartialScan(ids []int) ([]V, error)
	// Scan is PartialScan over every component.
	Scan() ([]V, error)
	// Grow appends k fresh components, each initialised to the zero value
	// of V, and returns the new component count. Linearizable: operations
	// ordered after it see — and may name — the new components. Grow is
	// the only resize; the universe never shrinks.
	Grow(k int) (int, error)
}

// maxBitmaskComponents bounds the stack-allocated duplicate bitmask in
// validateIDs: 4096 bits = 512 bytes of stack, zeroed per call, which is
// far cheaper than a heap allocation on the hot path.
const maxBitmaskComponents = 4096

// validateIDs rejects empty, out-of-range and duplicate component sets. It
// is on the hot path of every operation and allocation-free for all
// objects up to maxBitmaskComponents components; only larger objects with
// wide sets allocate their bitmask, one bit per component.
func validateIDs(n int, ids []int) error {
	if len(ids) == 0 {
		return fmt.Errorf("%w: empty component set", ErrBadComponent)
	}
	if n <= 64 {
		// One machine word covers the whole object: linear scan, no array to
		// zero. This is the tier every perfbench workload hits (64
		// components).
		var seen uint64
		for _, id := range ids {
			if id < 0 || id >= n {
				return fmt.Errorf("%w: component %d out of range [0,%d)", ErrBadComponent, id, n)
			}
			bit := uint64(1) << id
			if seen&bit != 0 {
				return fmt.Errorf("%w: duplicate component %d", ErrBadComponent, id)
			}
			seen |= bit
		}
		return nil
	}
	if len(ids) <= 32 {
		// Quadratic duplicate check beats the big bitmask for small sets.
		for i, id := range ids {
			if id < 0 || id >= n {
				return fmt.Errorf("%w: component %d out of range [0,%d)", ErrBadComponent, id, n)
			}
			for j := 0; j < i; j++ {
				if ids[j] == id {
					return fmt.Errorf("%w: duplicate component %d", ErrBadComponent, id)
				}
			}
		}
		return nil
	}
	var stack [maxBitmaskComponents / 64]uint64
	seen := stack[:]
	if n > maxBitmaskComponents {
		seen = make([]uint64, (n+63)/64)
	}
	for _, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("%w: component %d out of range [0,%d)", ErrBadComponent, id, n)
		}
		w, bit := id/64, uint64(1)<<(id%64)
		if seen[w]&bit != 0 {
			return fmt.Errorf("%w: duplicate component %d", ErrBadComponent, id)
		}
		seen[w] |= bit
	}
	return nil
}

func validateArgs[V any](n int, ids []int, vals []V) error {
	if err := validateIDs(n, ids); err != nil {
		return err
	}
	if len(vals) != len(ids) {
		return fmt.Errorf("%w: %d values for %d components", ErrBadComponent, len(vals), len(ids))
	}
	return nil
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
