package snapshot

import (
	"errors"
	"fmt"
)

// This file is the package's single construction surface: one factory over
// every implementation, used by the parity suite, snapshotd and perfbench.
// New is also the only constructor that returns an error instead of
// panicking, which is what a serving layer needs.

// Impl names a partial snapshot implementation accepted by New.
type Impl string

const (
	// ImplLockFree is the paper's wait-free object (LockFree).
	ImplLockFree Impl = "lockfree"
	// ImplRWMutex is the coarse-grained reference implementation (RWMutex).
	ImplRWMutex Impl = "rwmutex"
)

// Impls lists every implementation New accepts, in the order tooling
// matrices iterate them.
func Impls() []Impl {
	return []Impl{ImplLockFree, ImplRWMutex}
}

// New constructs the implementation named by impl with n components, each
// initialised to the zero value of V. An unknown implementation or a
// non-positive n is an error rather than a panic.
func New[V any](impl Impl, n int) (Object[V], error) {
	if n <= 0 {
		return nil, fmt.Errorf("snapshot: number of components must be positive, got %d", n)
	}
	switch impl {
	case ImplLockFree:
		return NewLockFree[V](n), nil
	case ImplRWMutex:
		return NewRWMutex[V](n), nil
	default:
		return nil, fmt.Errorf("snapshot: unknown implementation %q (want one of %v)", impl, Impls())
	}
}

// StatsReader is any implementation exposing progress counters. LockFree
// implements it; the RWMutex reference intentionally does not — the parity
// claim is that it needs none.
type StatsReader interface{ Stats() Stats }

// Error codes: the stable wire-level taxonomy of the package's sentinel
// errors, in one place so every transport maps them identically. The
// serving layer translates CodeBadComponent to HTTP 400 (the client named
// components the object does not have — a validation failure) and
// CodeBadResize to HTTP 409 (the resize conflicts with the object's
// current or minimum size — retryable after re-reading /stats).
const (
	// CodeBadComponent is ErrBadComponent's wire code.
	CodeBadComponent = "bad_component"
	// CodeBadResize is ErrBadResize's wire code.
	CodeBadResize = "bad_resize"
)

// ErrorCode maps an error returned by any Object method to its stable wire
// code, or "" for errors outside the package's taxonomy. It follows
// errors.Is, so wrapped sentinels map like the sentinels themselves.
func ErrorCode(err error) string {
	switch {
	case errors.Is(err, ErrBadComponent):
		return CodeBadComponent
	case errors.Is(err, ErrBadResize):
		return CodeBadResize
	default:
		return ""
	}
}
