package snapshot

import (
	"fmt"
	"math"
	"sync"
)

// RWMutex is the coarse-grained reference implementation of Object: one
// reader/writer lock over the whole component array. Every operation is
// trivially atomic (including multi-component Update batches and resizes),
// which makes it the correctness baseline for the spec checker and the
// benchmark foil for LockFree. Scans on disjoint component sets still
// serialise against updates here — exactly the interference the partial
// snapshot object removes.
type RWMutex[V any] struct {
	mu   sync.RWMutex
	vals []V
}

// NewRWMutex returns a lock-based partial snapshot object with n
// components, each initialised to the zero value of V.
func NewRWMutex[V any](n int) *RWMutex[V] {
	if n <= 0 {
		panic("snapshot: number of components must be positive")
	}
	return &RWMutex[V]{vals: make([]V, n)}
}

func (o *RWMutex[V]) Components() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.vals)
}

func (o *RWMutex[V]) Update(ids []int, vals []V) error {
	// Validation runs under the lock: the component count is resizable, so
	// reading it outside the critical section would race a concurrent
	// Grow/Shrink, and the rejection of a shrunk id must linearize with it.
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := validateArgs(len(o.vals), ids, vals); err != nil {
		return err
	}
	for i, id := range ids {
		o.vals[id] = vals[i]
	}
	return nil
}

func (o *RWMutex[V]) PartialScan(ids []int) ([]V, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if err := validateIDs(len(o.vals), ids); err != nil {
		return nil, err
	}
	out := make([]V, len(ids))
	for i, id := range ids {
		out[i] = o.vals[id]
	}
	return out, nil
}

func (o *RWMutex[V]) Scan() ([]V, error) {
	// One critical section: the component count and the values are read
	// atomically, so a concurrent resize can neither tear the id set nor
	// fail validation under the scan.
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]V, len(o.vals))
	copy(out, o.vals)
	return out, nil
}

// Grow appends k zero-valued components under the write lock.
func (o *RWMutex[V]) Grow(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("%w: grow by %d components", ErrBadResize, k)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if k > math.MaxInt-len(o.vals) {
		return 0, fmt.Errorf("%w: grow %d components by %d overflows int", ErrBadResize, len(o.vals), k)
	}
	o.vals = append(o.vals, make([]V, k)...)
	return len(o.vals), nil
}

// Shrink removes the k highest-numbered components under the write lock.
// The surviving prefix is copied into a fresh slice so a later Grow cannot
// resurrect dropped values through the old backing array.
func (o *RWMutex[V]) Shrink(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("%w: shrink by %d components", ErrBadResize, k)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if k >= len(o.vals) {
		return 0, fmt.Errorf("%w: shrink by %d of %d components", ErrBadResize, k, len(o.vals))
	}
	n := len(o.vals) - k
	vals := make([]V, n)
	copy(vals, o.vals[:n])
	o.vals = vals
	return n, nil
}
