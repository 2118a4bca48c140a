package snapshot

import "sync"

// RWMutex is the coarse-grained reference implementation of Object: one
// reader/writer lock over the whole component array. Every operation is
// trivially atomic (including multi-component Update batches), which makes
// it the correctness baseline for the spec checker and the benchmark foil
// for LockFree. Scans on disjoint component sets still serialise against
// updates here — exactly the interference the partial snapshot object
// removes.
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

func (o *RWMutex[V]) Components() int { return len(o.vals) }

func (o *RWMutex[V]) Update(ids []int, vals []V) error {
	// The component count is fixed, so validation needs no lock.
	if err := validateArgs(len(o.vals), ids, vals); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, id := range ids {
		o.vals[id] = vals[i]
	}
	return nil
}

// AppendScan grows dst before it takes the lock, never under it.
func (o *RWMutex[V]) AppendScan(dst []V, ids []int) ([]V, error) {
	if err := validateIDs(len(o.vals), ids); err != nil {
		return dst, err
	}
	if cap(dst)-len(dst) < len(ids) {
		dst = append(make([]V, 0, len(dst)+len(ids)), dst...)
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, id := range ids {
		dst = append(dst, o.vals[id])
	}
	return dst, nil
}

func (o *RWMutex[V]) PartialScan(ids []int) ([]V, error) { return o.AppendScan(nil, ids) }

func (o *RWMutex[V]) Scan() ([]V, error) { return o.AppendScan(nil, allIDs(len(o.vals))) }
