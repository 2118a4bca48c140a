// Package core is the stable entry point of the repository: it re-exports
// the partial snapshot API from internal/snapshot so the original seed
// import path keeps working while the implementation lives in its own
// package.
package core

import "partialsnapshot/internal/snapshot"

// Object is the partial snapshot interface; see internal/snapshot.
type Object[V any] = snapshot.Object[V]

// ErrBadComponent reports an invalid component-ID set.
var ErrBadComponent = snapshot.ErrBadComponent

// ErrBadResize reports an invalid Grow/Shrink amount.
var ErrBadResize = snapshot.ErrBadResize

// Impl names an implementation accepted by New; see snapshot.Impls.
type Impl = snapshot.Impl

// Option is a functional option of New; see internal/snapshot.
type Option = snapshot.Option

// New is the package factory over every implementation (lockfree,
// versioned, rwmutex); see snapshot.New.
func New[V any](impl Impl, n int, opts ...Option) (Object[V], error) {
	return snapshot.New[V](impl, n, opts...)
}

// NewLockFree returns the wait-free partial snapshot object.
func NewLockFree[V any](n int) Object[V] {
	obj, err := New[V](snapshot.ImplLockFree, n)
	if err != nil {
		panic(err) // n <= 0: the seed constructors' documented contract
	}
	return obj
}

// NewRWMutex returns the coarse lock-based reference implementation.
func NewRWMutex[V any](n int) Object[V] {
	obj, err := New[V](snapshot.ImplRWMutex, n)
	if err != nil {
		panic(err)
	}
	return obj
}
