package snapshot_test

import (
	"errors"
	"fmt"
	"testing"

	"partialsnapshot/internal/snapshot"
)

// TestFactoryMatrix constructs every implementation through the factory
// and pushes one update/scan round through it — the smoke-level contract
// every Impls() entry must satisfy.
func TestFactoryMatrix(t *testing.T) {
	for _, impl := range snapshot.Impls() {
		t.Run(string(impl), func(t *testing.T) {
			obj, err := snapshot.New[int64](impl, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := obj.Update([]int{0, 7}, []int64{10, 70}); err != nil {
				t.Fatal(err)
			}
			got, err := obj.PartialScan([]int{7, 0, 3})
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != 70 || got[1] != 10 || got[2] != 0 {
				t.Fatalf("scan after update read %v", got)
			}
		})
	}
}

// TestFactoryRejectsMisuse is the factory's whole point versus the bare
// constructors: a bad implementation name, a bad size, or an option the
// selected implementation cannot honour is an error, never a silent no-op.
func TestFactoryRejectsMisuse(t *testing.T) {
	cases := []struct {
		name string
		impl snapshot.Impl
		n    int
		opts []snapshot.Option
	}{
		{"unknown impl", "spanner", 8, nil},
		{"zero components", snapshot.ImplLockFree, 0, nil},
		{"negative components", snapshot.ImplVersioned, -3, nil},
		{"attempts on lockfree", snapshot.ImplLockFree, 8, []snapshot.Option{snapshot.WithOptimisticAttempts(5)}},
		{"attempts on rwmutex", snapshot.ImplRWMutex, 8, []snapshot.Option{snapshot.WithOptimisticAttempts(5)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if obj, err := snapshot.New[int64](tc.impl, tc.n, tc.opts...); err == nil {
				t.Fatalf("New(%s, %d) accepted the misuse and returned %T", tc.impl, tc.n, obj)
			}
		})
	}
}

// TestFactoryOptimisticAttempts checks that New hands the one option it
// accepts to Versioned: with a zero budget every scan escalates at once.
func TestFactoryOptimisticAttempts(t *testing.T) {
	obj, err := snapshot.New[int64](snapshot.ImplVersioned, 8, snapshot.WithOptimisticAttempts(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.PartialScan([]int{0, 7}); err != nil {
		t.Fatal(err)
	}
	if st := obj.(snapshot.StatsReader).Stats(); st.Escalations != 1 || st.OptimisticScans != 0 {
		t.Fatalf("zero-attempt budget ignored: %+v", st)
	}
}

// TestErrorCode pins the wire taxonomy: the two sentinels map to their
// codes (wrapped or not), everything else to "".
func TestErrorCode(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{snapshot.ErrBadComponent, snapshot.CodeBadComponent},
		{fmt.Errorf("update: %w", snapshot.ErrBadComponent), snapshot.CodeBadComponent},
		{snapshot.ErrBadResize, snapshot.CodeBadResize},
		{fmt.Errorf("shrink by 9: %w", snapshot.ErrBadResize), snapshot.CodeBadResize},
		{nil, ""},
		{errors.New("disk on fire"), ""},
	}
	for _, tc := range cases {
		if got := snapshot.ErrorCode(tc.err); got != tc.want {
			t.Fatalf("ErrorCode(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
	// The codes are what the server maps to HTTP statuses; a rename is a
	// wire-protocol break, so pin the literals too.
	if snapshot.CodeBadComponent != "bad_component" || snapshot.CodeBadResize != "bad_resize" {
		t.Fatalf("wire codes changed: %q, %q", snapshot.CodeBadComponent, snapshot.CodeBadResize)
	}
}
