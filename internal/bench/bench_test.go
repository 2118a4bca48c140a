package bench_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"partialsnapshot/internal/bench"
	"partialsnapshot/internal/snapshot"
)

func TestRunSmoke(t *testing.T) {
	for _, impl := range []string{"lockfree", "rwmutex"} {
		res, err := bench.Run(bench.Config{
			Impl:        impl,
			Goroutines:  4,
			Components:  16,
			ScanWidth:   4,
			UpdateWidth: 2,
			ScanFrac:    0.5,
			Duration:    30 * time.Millisecond,
			Seed:        1,
		})
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		if res.UpdateOps+res.ScanOps == 0 {
			t.Fatalf("%s: no operations completed", impl)
		}
		if res.OpsPerSec <= 0 {
			t.Fatalf("%s: ops/sec = %v", impl, res.OpsPerSec)
		}
	}
}

// TestRunEveryScenario drives each named workload shape through a short
// cell and checks the shape left its fingerprint: defaults resolved into
// the Result (so BENCH json records what actually ran) and the scan/update
// mix matches the shape's bias.
func TestRunEveryScenario(t *testing.T) {
	for _, scenario := range bench.Scenarios() {
		t.Run(scenario, func(t *testing.T) {
			res, err := bench.Run(bench.Config{
				Impl:       "lockfree",
				Scenario:   scenario,
				Goroutines: 4,
				Components: 16,
				ScanFrac:   -1, // shape default
				Duration:   20 * time.Millisecond,
				Seed:       1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.UpdateOps+res.ScanOps == 0 {
				t.Fatal("no operations completed")
			}
			if res.ScanWidth == 0 || res.UpdateWidth == 0 || res.ScanFrac < 0 {
				t.Fatalf("shape defaults not resolved into the result: %+v", res.Config)
			}
			switch scenario {
			case bench.ScenarioScanHeavy:
				if res.ScanOps <= res.UpdateOps {
					t.Fatalf("scan-heavy ran %d scans vs %d updates", res.ScanOps, res.UpdateOps)
				}
			case bench.ScenarioBatchHeavy:
				if res.UpdateOps <= res.ScanOps {
					t.Fatalf("batch-heavy ran %d updates vs %d scans", res.UpdateOps, res.ScanOps)
				}
				if res.UpdateWidth < res.Components/2 {
					t.Fatalf("batch-heavy update width = %d on %d components", res.UpdateWidth, res.Components)
				}
			case bench.ScenarioPartitioned:
				if res.Stats == nil || res.Stats.RecordsVisited != 0 {
					t.Fatalf("partitioned cell saw registry interference: %+v", res.Stats)
				}
			case bench.ScenarioUpdateHeavy:
				// Pure update traffic: no scans run, no announcement is ever
				// live, so every registry consultation reads a nil slot head
				// — walks stay zero and the skip count reconciles exactly
				// with update ops x update width.
				if res.ScanOps != 0 {
					t.Fatalf("update-heavy ran %d scans, want 0", res.ScanOps)
				}
				if res.Stats == nil {
					t.Fatal("update-heavy lockfree result is missing Stats")
				}
				if res.Stats.RegistryWalks != 0 {
					t.Fatalf("update-heavy cell walked registry slots %d times, want 0: %+v",
						res.Stats.RegistryWalks, res.Stats)
				}
				if want := res.UpdateOps * uint64(res.UpdateWidth); res.Stats.WalksSkipped != want {
					t.Fatalf("WalksSkipped = %d, want %d (%d updates x width %d)",
						res.Stats.WalksSkipped, want, res.UpdateOps, res.UpdateWidth)
				}
			}
		})
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	bad := []bench.Config{
		{Impl: "lockfree", Goroutines: 0, Components: 8, ScanWidth: 1, UpdateWidth: 1},
		{Impl: "lockfree", Goroutines: 1, Components: 8, ScanWidth: 9, UpdateWidth: 1},
		{Impl: "lockfree", Goroutines: 1, Components: 8, ScanWidth: 1, UpdateWidth: -1},
		{Impl: "lockfree", Goroutines: 1, Components: 8, ScanWidth: 1, UpdateWidth: 1, ScanFrac: 1.5},
		{Impl: "nonesuch", Goroutines: 1, Components: 8, ScanWidth: 1, UpdateWidth: 1},
		{Impl: "lockfree", Scenario: "nonesuch", Goroutines: 1, Components: 8, ScanWidth: 1, UpdateWidth: 1},
		// Partitioned: 4 workers over 8 components leaves partitions of 2,
		// too narrow for a scan width of 4.
		{Impl: "lockfree", Scenario: bench.ScenarioPartitioned, Goroutines: 4, Components: 8, ScanWidth: 4, UpdateWidth: 1},
	}
	for i, cfg := range bad {
		if _, err := bench.Run(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestPartitionedScenarioLocality runs the partitioned workload and checks
// the locality outcome end to end through the public API: the lock-free
// object's final stats must show updaters consulting the registry while
// finding zero foreign records — workers pinned to disjoint ranges never
// announce where other workers look — and the result must carry those
// stats for the BENCH_*.json trajectory.
func TestPartitionedScenarioLocality(t *testing.T) {
	res, err := bench.Run(bench.Config{
		Impl:        "lockfree",
		Scenario:    bench.ScenarioPartitioned,
		Goroutines:  4,
		Components:  32,
		ScanWidth:   4,
		UpdateWidth: 2,
		ScanFrac:    0.5,
		Duration:    50 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateOps == 0 || res.ScanOps == 0 {
		t.Fatalf("partitioned run did nothing: %+v", res)
	}
	if res.Stats == nil {
		t.Fatal("partitioned lockfree result is missing Stats")
	}
	// Consultations split into slot walks and nil-head skips; with
	// single-worker partitions most scans never announce, so most slot
	// heads read nil and the skip side dominates.
	if res.Stats.RegistryWalks+res.Stats.WalksSkipped == 0 {
		t.Fatalf("updaters never consulted the registry: %+v", res.Stats)
	}
	// Workers scan only their own partitions, where only their own updates
	// run: a scan may retry against a same-partition update, but no record
	// is ever enrolled in a slot a foreign worker walks, so any visit is
	// within-partition. With single-worker partitions a worker can only
	// obstruct itself between its own operations, so no announcement is
	// ever live while another operation walks: zero visits globally.
	if res.Stats.RecordsVisited != 0 || res.Stats.HelpsPosted != 0 {
		t.Fatalf("partitioned workload saw registry interference: %+v", res.Stats)
	}
	if res.Stats.LiveAnnouncements != 0 {
		t.Fatalf("partitioned run leaked %d announcements", res.Stats.LiveAnnouncements)
	}
	// The rwmutex implementation has no stats to report.
	res, err = bench.Run(bench.Config{
		Impl: "rwmutex", Scenario: bench.ScenarioPartitioned,
		Goroutines: 2, Components: 8, ScanWidth: 2, UpdateWidth: 1,
		ScanFrac: 0.5, Duration: 10 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil {
		t.Fatalf("rwmutex result unexpectedly carries stats: %+v", res.Stats)
	}
}

// failingObject wraps a healthy lock-free object and starts failing every
// operation once a fixed number of operations has completed, to exercise
// Run's error path.
type failingObject struct {
	snapshot.Object[int64]
	ops   atomic.Int64
	after int64
}

var errInjected = errors.New("injected failure")

func (f *failingObject) Update(ids []int, vals []int64) error {
	if f.ops.Add(1) > f.after {
		return errInjected
	}
	return f.Object.Update(ids, vals)
}

func (f *failingObject) PartialScan(ids []int) ([]int64, error) {
	if f.ops.Add(1) > f.after {
		return nil, errInjected
	}
	return f.Object.PartialScan(ids)
}

// TestRunWorkerFailureFlushesCountsAndStopsPromptly pins the Run bugfix: a
// worker failure must cancel the whole cell immediately instead of letting
// the other workers run out the clock, and the operations every worker
// completed before the failure must still be flushed into the Result
// (previously the failing path returned without flushing and the clock
// always ran to Duration).
func TestRunWorkerFailureFlushesCountsAndStopsPromptly(t *testing.T) {
	inner, err := bench.NewObject("lockfree", 16)
	if err != nil {
		t.Fatal(err)
	}
	obj := &failingObject{Object: inner, after: 500}
	start := time.Now()
	res, err := bench.RunWithObject(obj, bench.Config{
		Impl:        "lockfree",
		Goroutines:  4,
		Components:  16,
		ScanWidth:   4,
		UpdateWidth: 2,
		ScanFrac:    0.5,
		Duration:    10 * time.Second, // the shared stop must beat this by far
		Seed:        1,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, errInjected) {
		t.Fatalf("error = %v, want the injected failure", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("failing cell took %v, want prompt cancellation well under the 10s duration", elapsed)
	}
	if got := res.UpdateOps + res.ScanOps; got == 0 || got > 500 {
		t.Fatalf("flushed ops = %d, want the ~500 pre-failure ops (nonzero, <= 500)", got)
	}
}

func ExampleRun() {
	res, err := bench.Run(bench.Config{
		Impl: "lockfree", Scenario: bench.ScenarioPartitioned,
		Goroutines: 2, Components: 16, ScanWidth: 2, UpdateWidth: 1,
		ScanFrac: 0.5, Duration: 5 * time.Millisecond, Seed: 1,
	})
	fmt.Println(err, res.Stats.RecordsVisited)
	// Output: <nil> 0
}

func TestNewObject(t *testing.T) {
	for _, impl := range []string{"lockfree", "rwmutex"} {
		obj, err := bench.NewObject(impl, 4)
		if err != nil {
			t.Fatal(err)
		}
		if obj.Components() != 4 {
			t.Fatalf("%s: Components() = %d", impl, obj.Components())
		}
	}
	if _, err := bench.NewObject("nope", 4); err == nil {
		t.Fatal("unknown implementation accepted")
	}
	// The error surface of the objects is the shared typed error.
	obj, _ := bench.NewObject("lockfree", 4)
	if err := obj.Update([]int{9}, []int64{1}); !errors.Is(err, snapshot.ErrBadComponent) {
		t.Fatalf("error = %v, want ErrBadComponent", err)
	}
}
