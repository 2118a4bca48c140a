package snapshot

import (
	"errors"
	"fmt"
)

// This file is the package's single construction surface: one factory over
// every implementation, with functional options replacing the per-call-site
// constructor switches that used to live in internal/bench, the parity
// suite and cmd/snapbench. New is also the only constructor that returns an
// error instead of panicking, which is what a serving layer needs — a bad
// -impl flag is an operator mistake, not a programming bug.

// Impl names a partial snapshot implementation accepted by New.
type Impl string

const (
	// ImplLockFree is the paper's wait-free object (LockFree).
	ImplLockFree Impl = "lockfree"
	// ImplVersioned is the optimistic seqlock front over the wait-free
	// object (Versioned).
	ImplVersioned Impl = "versioned"
	// ImplRWMutex is the coarse-grained reference implementation (RWMutex).
	ImplRWMutex Impl = "rwmutex"
)

// Impls lists every implementation New accepts, in the order tooling
// matrices iterate them.
func Impls() []Impl {
	return []Impl{ImplLockFree, ImplVersioned, ImplRWMutex}
}

// options accumulates the functional options of New. New rejects a knob
// the selected implementation cannot honour, so a call site can never
// silently drop a tuning it asked for.
type options struct {
	attempts *int
}

// Option is a functional option for New.
type Option func(*options)

// WithOptimisticAttempts sets the Versioned escalation budget — how many
// torn optimistic attempts a scan tolerates before falling back to the
// wait-free helping protocol (n <= 0 escalates immediately). Valid only
// for ImplVersioned.
func WithOptimisticAttempts(n int) Option {
	return func(o *options) { o.attempts = &n }
}

// New constructs the implementation named by impl with n components, each
// initialised to the zero value of V. It is the package's single factory:
// every option is validated against the selected implementation, and an
// unknown implementation, a non-positive n, or an inapplicable option is
// an error rather than a panic or a silent no-op.
func New[V any](impl Impl, n int, opts ...Option) (Object[V], error) {
	var cfg options
	for _, opt := range opts {
		opt(&cfg)
	}
	if n <= 0 {
		return nil, fmt.Errorf("snapshot: number of components must be positive, got %d", n)
	}
	if cfg.attempts != nil && impl != ImplVersioned {
		return nil, fmt.Errorf("snapshot: WithOptimisticAttempts applies only to %q, not %q", ImplVersioned, impl)
	}
	switch impl {
	case ImplLockFree:
		return NewLockFree[V](n), nil
	case ImplVersioned:
		v := NewVersioned[V](n)
		if cfg.attempts != nil {
			v.WithOptimisticAttempts(*cfg.attempts)
		}
		return v, nil
	case ImplRWMutex:
		return NewRWMutex[V](n), nil
	default:
		return nil, fmt.Errorf("snapshot: unknown implementation %q (want one of %v)", impl, Impls())
	}
}

// StatsReader is any implementation exposing progress counters. LockFree
// and Versioned implement it; the RWMutex reference intentionally does
// not — the parity claim is that it needs none.
type StatsReader interface{ Stats() Stats }

// InfoObject is the provenance-aware surface beyond Object: update
// operation ids for the provenance oracle and scan adoption info. LockFree
// and Versioned provide it; RWMutex does not, and consumers degrade to the
// plain Object calls.
type InfoObject[V any] interface {
	UpdateOp(ids []int, vals []V) (uint64, error)
	PartialScanInfo(ids []int) ([]V, ScanInfo, error)
}

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
