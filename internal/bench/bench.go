// Package bench is the benchmark harness behind cmd/snapbench: it runs a
// configurable mixed Update/PartialScan workload against a chosen Object
// implementation and reports throughput, following the SPAA benchmarking
// discipline of sweeping goroutines × components × scan width and
// comparing implementations under identical workloads.
//
// Workloads come from internal/workload: every scenario name maps to a
// named workload shape (uniform, zipfian, partitioned, batch-heavy,
// scan-heavy), the same generator that drives the exploration and stress
// tests — so a scenario that is model-checked for correctness is, by
// construction, the scenario that gets measured for throughput. Lock-free
// results carry the object's final Stats so the perf trajectory captures
// contention (retries, registry visits), not just throughput.
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/workload"
)

// Scenario names for Config.Scenario, each an internal/workload shape
// ("mixed" is the legacy alias of the uniform shape).
const (
	// ScenarioMixed is the default: every worker draws component sets
	// uniformly from the whole object.
	ScenarioMixed = "mixed"
	// ScenarioPartitioned pins worker g of G to the component range
	// [g*(n/G), (g+1)*(n/G)): workloads on disjoint ranges, the locality
	// scenario.
	ScenarioPartitioned = string(workload.Partitioned)
	// ScenarioZipfian skews traffic onto a few hot components.
	ScenarioZipfian = string(workload.Zipfian)
	// ScenarioBatchHeavy is update-dominated wide multi-component batches.
	ScenarioBatchHeavy = string(workload.BatchHeavy)
	// ScenarioScanHeavy is scan-dominated wide partial scans.
	ScenarioScanHeavy = string(workload.ScanHeavy)
	// ScenarioUpdateHeavy is pure update traffic with no scans at all: the
	// quiescent fast-path scenario, where every registry consultation
	// should read a nil slot head and skip the walk.
	ScenarioUpdateHeavy = string(workload.UpdateHeavy)
	// ScenarioChurn runs mixed traffic over a growing universe: worker 0
	// Grows the object once, early, while everyone's component picks spread
	// over the base and flex zones.
	ScenarioChurn = string(workload.Churn)
	// ScenarioFlashCrowd is churn with most traffic rushing the flex
	// components the Grow adds.
	ScenarioFlashCrowd = string(workload.FlashCrowd)
)

// Scenarios lists every accepted scenario name.
func Scenarios() []string {
	out := []string{ScenarioMixed}
	for _, s := range workload.Shapes() {
		if s != workload.Uniform {
			out = append(out, string(s))
		}
	}
	return out
}

// shapeFor maps a scenario name to its workload shape.
func shapeFor(scenario string) (workload.Shape, error) {
	if scenario == "" || scenario == ScenarioMixed {
		return workload.Uniform, nil
	}
	for _, s := range workload.Shapes() {
		if scenario == string(s) {
			return s, nil
		}
	}
	return "", fmt.Errorf("bench: unknown scenario %q (want one of %v)", scenario, Scenarios())
}

// Config describes one benchmark cell.
type Config struct {
	// Impl selects the implementation, any snapshot.Impls() name:
	// "lockfree" or "rwmutex".
	Impl string `json:"impl"`
	// Scenario selects the workload shape: ScenarioMixed (default, also
	// selected by "") or any other Scenarios() entry.
	Scenario string `json:"scenario,omitempty"`
	// Goroutines is the number of worker goroutines.
	Goroutines int `json:"goroutines"`
	// Components is n, the size of the snapshot object.
	Components int `json:"components"`
	// ScanWidth is the number of components each PartialScan names
	// (0 = the scenario shape's default).
	ScanWidth int `json:"scan_width"`
	// UpdateWidth is the number of components each Update names
	// (0 = the scenario shape's default).
	UpdateWidth int `json:"update_width"`
	// ScanFrac is the fraction of operations that are scans, in [0,1];
	// negative selects the scenario shape's default.
	ScanFrac float64 `json:"scan_frac"`
	// Duration is how long the workload runs.
	Duration time.Duration `json:"duration_ns"`
	// Seed makes the workload reproducible.
	Seed int64 `json:"seed"`
}

// Result is one benchmark cell's outcome.
type Result struct {
	Config
	UpdateOps  uint64  `json:"update_ops"`
	ScanOps    uint64  `json:"scan_ops"`
	ElapsedSec float64 `json:"elapsed_sec"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// ResizeOps counts completed Grow operations (resizing scenarios
	// only); RejectedOps counts updates and scans that drew ErrBadComponent
	// because they named a component before the Grow that adds it landed —
	// expected traffic in a resizing scenario, a hard failure anywhere
	// else. Rejected ops count toward neither OpsPerSec nor the
	// per-operation allocation figures.
	ResizeOps   uint64 `json:"resize_ops,omitempty"`
	RejectedOps uint64 `json:"rejected_ops,omitempty"`
	// AllocsPerOp and BytesPerOp are the heap allocation count and byte
	// volume per completed operation, measured over the whole cell via
	// runtime.MemStats deltas. The measurement amortises the harness's own
	// fixed costs (worker goroutine spawns, the duration timer) over every
	// operation of the run, so single-goroutine cells read within a few
	// thousandths of the implementation's true steady-state cost; it is
	// cell-wide, not per-goroutine. Pointers so that BENCH files predating
	// the field decode as "not recorded" rather than as zero.
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	// Stats is the implementation's final progress counters, for
	// implementations that expose them (the lock-free object; nil for
	// rwmutex). In partitioned cells, ScanRetries and RecordsVisited
	// quantify contention and cross-partition interference directly.
	Stats *snapshot.Stats `json:"stats,omitempty"`
}

// NewObject constructs the implementation named by impl through the
// package factory.
func NewObject(impl string, n int) (snapshot.Object[int64], error) {
	obj, err := snapshot.New[int64](snapshot.Impl(impl), n)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return obj, nil
}

// generator validates cfg and builds its workload generator. The resolved
// workload config (shape defaults filled in) is folded back into the
// bench config so the emitted JSON records the widths and mix that
// actually ran.
func generator(cfg Config) (*workload.Generator, Config, error) {
	if cfg.Goroutines <= 0 || cfg.Components <= 0 {
		return nil, cfg, fmt.Errorf("bench: goroutines and components must be positive, got %d and %d", cfg.Goroutines, cfg.Components)
	}
	shape, err := shapeFor(cfg.Scenario)
	if err != nil {
		return nil, cfg, err
	}
	gen, err := workload.New(workload.Config{
		Shape:       shape,
		Components:  cfg.Components,
		Workers:     cfg.Goroutines,
		ScanWidth:   cfg.ScanWidth,
		UpdateWidth: cfg.UpdateWidth,
		ScanFrac:    cfg.ScanFrac,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, cfg, fmt.Errorf("bench: %w", err)
	}
	resolved := gen.Config()
	cfg.ScanWidth = resolved.ScanWidth
	cfg.UpdateWidth = resolved.UpdateWidth
	cfg.ScanFrac = resolved.ScanFrac
	return gen, cfg, nil
}

// Resolve validates cfg's workload dimensions and returns it with the
// scenario shape's defaults filled in (widths, scan fraction). Callers
// sweeping a matrix use it to tell an infeasible cell (skip it) from a
// sweep-wide mistake before paying for a run; it does not check Impl,
// which Run validates.
func Resolve(cfg Config) (Config, error) {
	_, resolved, err := generator(cfg)
	return resolved, err
}

// Run executes one benchmark cell.
func Run(cfg Config) (Result, error) {
	gen, cfg, err := generator(cfg)
	if err != nil {
		return Result{}, err
	}
	obj, err := NewObject(cfg.Impl, cfg.Components)
	if err != nil {
		return Result{}, err
	}
	return runWithObject(obj, gen, cfg)
}

// runWithObject drives a validated config against obj. Each worker
// replays its own deterministic workload stream — drawing the next
// operation is allocation-free, so the timed loop charges no harness
// overhead to the implementation under test — until the duration elapses
// or a worker fails. A worker's counts are flushed via defer so ops
// completed before a failure still reach the Result, and the first error
// trips a shared stop that cancels the clock and the other workers
// promptly.
func runWithObject(obj snapshot.Object[int64], gen *workload.Generator, cfg Config) (Result, error) {
	// Resizing shapes generate ops that legitimately name components
	// before the Grow that adds them; those rejections are counted, not
	// fatal.
	tolerateRejects := gen.Config().Shape.Resizes()
	var stop atomic.Bool
	var updates, scans, resizes, rejects atomic.Uint64
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	var stopOnce sync.Once
	stopCh := make(chan struct{})
	halt := func() { stopOnce.Do(func() { stop.Store(true); close(stopCh) }) }

	// Allocation accounting brackets the run: a GC first, so the pools and
	// the allocator start the cell cold and comparable, then MemStats
	// deltas divided by completed ops. Mallocs is monotonic, so mid-run GCs
	// only show up as the genuine pool-refill cost they cause.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	start := time.Now()
	for g := 0; g < cfg.Goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var localUpdates, localScans, localResizes, localRejects uint64
			defer func() {
				updates.Add(localUpdates)
				scans.Add(localScans)
				resizes.Add(localResizes)
				rejects.Add(localRejects)
			}()
			fail := func(err error) {
				e := err
				firstErr.CompareAndSwap(nil, &e)
				halt()
			}
			rejected := func(err error) bool {
				if err == nil {
					return false
				}
				if tolerateRejects && errors.Is(err, snapshot.ErrBadComponent) {
					localRejects++
					return true
				}
				fail(err)
				return true
			}
			stream := gen.Stream(worker)
			for !stop.Load() {
				op := stream.Next()
				switch op.Kind {
				case workload.OpScan:
					// The nil-error guard keeps the closure call off the
					// success path, so the timed loop charges it only to ops
					// that actually failed.
					if _, err := obj.PartialScan(op.Comps); err != nil && rejected(err) {
						if stop.Load() {
							return
						}
						continue
					}
					localScans++
				case workload.OpUpdate:
					if err := obj.Update(op.Comps, op.Vals); err != nil && rejected(err) {
						if stop.Load() {
							return
						}
						continue
					}
					localUpdates++
				case workload.OpGrow:
					// The generator guarantees a single churner, so a resize
					// failure is a harness bug, never expected traffic.
					if _, err := obj.Grow(op.Delta); err != nil {
						fail(err)
						return
					}
					localResizes++
				}
			}
		}(g)
	}
	select {
	case <-time.After(cfg.Duration):
	case <-stopCh:
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	res := Result{
		Config:      cfg,
		UpdateOps:   updates.Load(),
		ScanOps:     scans.Load(),
		ResizeOps:   resizes.Load(),
		RejectedOps: rejects.Load(),
		ElapsedSec:  elapsed.Seconds(),
	}
	res.OpsPerSec = float64(res.UpdateOps+res.ScanOps+res.ResizeOps) / res.ElapsedSec
	if ops := res.UpdateOps + res.ScanOps + res.ResizeOps; ops > 0 {
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(ops)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
		res.AllocsPerOp, res.BytesPerOp = &allocs, &bytes
	}
	if ep := firstErr.Load(); ep != nil {
		return res, fmt.Errorf("bench: worker failed: %w", *ep)
	}
	if s, ok := obj.(snapshot.StatsReader); ok {
		st := s.Stats()
		res.Stats = &st
	}
	return res, nil
}
