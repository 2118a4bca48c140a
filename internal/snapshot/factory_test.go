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
// constructors: a bad implementation name or a bad size is an error, never
// a panic.
func TestFactoryRejectsMisuse(t *testing.T) {
	cases := []struct {
		name string
		impl snapshot.Impl
		n    int
	}{
		{"unknown impl", "spanner", 8},
		{"zero components", snapshot.ImplLockFree, 0},
		{"negative components", snapshot.ImplRWMutex, -3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if obj, err := snapshot.New[int64](tc.impl, tc.n); err == nil {
				t.Fatalf("New(%s, %d) accepted the misuse and returned %T", tc.impl, tc.n, obj)
			}
		})
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
		{fmt.Errorf("grow by 0: %w", snapshot.ErrBadResize), snapshot.CodeBadResize},
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
