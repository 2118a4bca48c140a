package snapshot_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"partialsnapshot/internal/sched"
	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/spec"
	"partialsnapshot/internal/workload"
)

// The exploration matrix drives every named workload shape through seeded
// pseudo-random schedules and cross-checks each explored history against
// the sequential specification. Failures are doubly replayable: by seed
// (-sched.seed re-runs the PRNG schedule) and by trace (-sched.trace
// replays the recorded decision file written on failure, no search
// involved).

var (
	// schedSeed, when non-zero, replaces the built-in seed matrix with a
	// single seed — the replay knob for a schedule CI reported as failing.
	schedSeed = flag.Int64("sched.seed", 0,
		"run the schedule exploration with this one seed (0 = built-in seed matrix)")
	// schedShape restricts the exploration matrix to one workload shape.
	schedShape = flag.String("sched.shape", "",
		"restrict the schedule exploration to this workload shape (empty = all shapes)")
	// schedTraceFile replays one recorded trace file; see
	// TestExplorationTraceReplay.
	schedTraceFile = flag.String("sched.trace", "",
		"replay this recorded trace file instead of exploring (used by TestExplorationTraceReplay)")
)

// exploreSeeds is the fixed matrix used when -sched.seed is not given; CI
// fans disjoint seeds out across jobs.
var exploreSeeds = []int64{1, 7, 42, 1234, 99991}

// exploreCell sizes one exploration scenario: a workload shape plus the
// object and traffic dimensions every goroutine's op stream derives from.
type exploreCell struct {
	shape        workload.Shape
	components   int
	workers      int
	scanWidth    int
	updateWidth  int
	opsPerWorker int
}

// exploreCells returns the per-shape scenario sizes. Widths are explicit
// (not shape defaults) because the tiny objects here make some defaults
// infeasible — e.g. partitioned pools of one component.
func exploreCells() []exploreCell {
	return []exploreCell{
		{shape: workload.Uniform, components: 4, workers: 4, scanWidth: 2, updateWidth: 2, opsPerWorker: 5},
		{shape: workload.Zipfian, components: 4, workers: 4, scanWidth: 2, updateWidth: 2, opsPerWorker: 5},
		{shape: workload.Partitioned, components: 4, workers: 2, scanWidth: 2, updateWidth: 1, opsPerWorker: 5},
		{shape: workload.BatchHeavy, components: 4, workers: 3, scanWidth: 2, updateWidth: 3, opsPerWorker: 5},
		{shape: workload.ScanHeavy, components: 4, workers: 3, scanWidth: 3, updateWidth: 1, opsPerWorker: 5},
	}
}

func cellFor(shape workload.Shape) (exploreCell, bool) {
	for _, c := range exploreCells() {
		if c.shape == shape {
			return c, true
		}
	}
	return exploreCell{}, false
}

// meta serialises the cell + seed into trace-file metadata, from which
// traceCell rebuilds the identical scenario.
func (ec exploreCell) meta(seed int64) map[string]string {
	return map[string]string{
		"shape":      string(ec.shape),
		"seed":       strconv.FormatInt(seed, 10),
		"components": strconv.Itoa(ec.components),
		"workers":    strconv.Itoa(ec.workers),
		"ops":        strconv.Itoa(ec.opsPerWorker),
	}
}

func traceCell(meta map[string]string) (exploreCell, int64, error) {
	ec, ok := cellFor(workload.Shape(meta["shape"]))
	if !ok {
		return ec, 0, fmt.Errorf("trace file names unknown shape %q", meta["shape"])
	}
	seed, err := strconv.ParseInt(meta["seed"], 10, 64)
	if err != nil {
		return ec, 0, fmt.Errorf("trace file has bad seed: %v", err)
	}
	for k, v := range map[string]int{"components": ec.components, "workers": ec.workers, "ops": ec.opsPerWorker} {
		if got, err := strconv.Atoi(meta[k]); err != nil || got != v {
			return ec, 0, fmt.Errorf("trace file %s = %q, current scenario uses %d — the trace predates a scenario change", k, meta[k], v)
		}
	}
	return ec, seed, nil
}

// exploreRun captures everything one exploration produced, for checking
// and for replay comparison.
type exploreRun struct {
	decisions sched.Trace
	ops       []spec.Op[int64]
	stats     snapshot.Stats
}

// scenario builds the sched.Scenario for this cell and seed: one
// controlled goroutine per workload worker, each applying its generated op
// stream to a fresh instrumented object while recording the history. The
// oracle — evaluated after every explored schedule — replays spec.Check
// and the announcement-hygiene invariant. The run
// pointer, when non-nil, receives the latest invocation's artifacts.
func (ec exploreCell) scenario(seed int64, run *exploreRun) sched.Scenario {
	return func(c *sched.Controller) sched.Oracle {
		gen, err := workload.New(workload.Config{
			Shape:       ec.shape,
			Components:  ec.components,
			Workers:     ec.workers,
			ScanWidth:   ec.scanWidth,
			UpdateWidth: ec.updateWidth,
			ScanFrac:    -1,
			Seed:        seed,
		})
		if err != nil {
			return func(sched.Trace) error { return err }
		}
		o := snapshot.NewLockFree[int64](ec.components).Instrument(c)
		rec := &spec.Recorder[int64]{}
		var mu sync.Mutex
		var opErrs []error
		for w := 0; w < ec.workers; w++ {
			ops := gen.Ops(w, ec.opsPerWorker)
			name := fmt.Sprintf("w%d", w)
			c.Spawn(name, func() {
				for _, op := range ops {
					switch op.Kind {
					case workload.OpUpdate:
						start := rec.Now()
						if err := o.Update(op.Comps, op.Vals); err != nil {
							mu.Lock()
							opErrs = append(opErrs, fmt.Errorf("%s: Update%v: %w", name, op.Comps, err))
							mu.Unlock()
							return
						}
						rec.Add(spec.Op[int64]{Kind: spec.Update, Start: start, End: rec.Now(),
							Comps: op.Comps, Vals: op.Vals})
					case workload.OpScan:
						start := rec.Now()
						vals, err := o.PartialScan(op.Comps)
						if err != nil {
							mu.Lock()
							opErrs = append(opErrs, fmt.Errorf("%s: PartialScan%v: %w", name, op.Comps, err))
							mu.Unlock()
							return
						}
						rec.Add(spec.Op[int64]{Kind: spec.Scan, Start: start, End: rec.Now(),
							Comps: op.Comps, Vals: vals})
					}
				}
			})
		}
		// The oracle proper is the shared specOracle (dfs_explore_test.go);
		// this layer only captures the run artifacts for replay comparison.
		base := specOracle(ec.components, o, rec, &mu, &opErrs)
		return func(tr sched.Trace) error {
			if run != nil {
				run.decisions = tr
				run.ops = rec.Ops()
				run.stats = o.Stats()
			}
			return base(tr)
		}
	}
}

// exploreSeeded runs one (cell, seed) exploration under sched.RunSeeded
// and returns the run artifacts and oracle verdict. A run that fails
// before the oracle (a livelock) still returns its decisions, so the
// failure gets a trace file.
func (ec exploreCell) exploreSeeded(seed int64) (exploreRun, error) {
	var run exploreRun
	c := sched.NewController()
	oracle := ec.scenario(seed, &run)(c)
	tr, err := sched.RunSeeded(c, seed)
	if err != nil {
		run.decisions = tr
		return run, err
	}
	return run, oracle(tr)
}

// traceDir is where failing explorations drop their replayable trace
// files: $SCHED_TRACE_DIR when set (CI uploads that directory as an
// artifact), the OS temp dir otherwise.
func traceDir() string {
	if dir := os.Getenv("SCHED_TRACE_DIR"); dir != "" {
		return dir
	}
	return os.TempDir()
}

// writeFailureTrace persists a failing schedule and reports the path (best
// effort: a trace that cannot be written degrades the failure message, not
// the failure).
func writeFailureTrace(t *testing.T, ec exploreCell, seed int64, tr sched.Trace) string {
	t.Helper()
	dir := traceDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("cannot create trace dir %s: %v", dir, err)
		return "(trace not written)"
	}
	path := filepath.Join(dir, fmt.Sprintf("sched-trace-%s-seed%d.txt", ec.shape, seed))
	if err := sched.WriteTraceFile(path, ec.meta(seed), tr); err != nil {
		t.Logf("cannot write trace file: %v", err)
		return "(trace not written)"
	}
	return path
}

// TestRandomScheduleExploration explores adversarial interleavings of
// every workload shape that the Go scheduler would essentially never
// produce on its own, cross-checking every explored history against the
// sequential specification and the announcement-hygiene invariant. A failure
// names the seed AND writes the recorded schedule to a trace file:
//
//	go test -run TestRandomScheduleExploration ./internal/snapshot \
//	    -sched.seed=<seed> -sched.shape=<shape>     # re-search by seed
//	go test -run TestExplorationTraceReplay ./internal/snapshot \
//	    -sched.trace=<file>                          # replay, no search
func TestRandomScheduleExploration(t *testing.T) {
	seeds := exploreSeeds
	if *schedSeed != 0 {
		seeds = []int64{*schedSeed}
	}
	cells := exploreCells()
	if *schedShape != "" {
		cell, ok := cellFor(workload.Shape(*schedShape))
		if !ok {
			t.Fatalf("-sched.shape=%q is not a known workload shape", *schedShape)
		}
		cells = []exploreCell{cell}
	}
	for _, ec := range cells {
		for _, seed := range seeds {
			ec, seed := ec, seed
			t.Run(fmt.Sprintf("%s/seed=%d", ec.shape, seed), func(t *testing.T) {
				run, err := ec.exploreSeeded(seed)
				if err != nil {
					path := writeFailureTrace(t, ec, seed, run.decisions)
					t.Fatalf("%v\nreplay by seed:  go test -run TestRandomScheduleExploration ./internal/snapshot -sched.seed=%d -sched.shape=%s\nreplay by trace: go test -run TestExplorationTraceReplay ./internal/snapshot -sched.trace=%s",
						err, seed, ec.shape, path)
				}
				t.Logf("%s seed %d: %d scheduling steps, %d ops, stats %+v",
					ec.shape, seed, len(run.decisions), len(run.ops), run.stats)
			})
		}
	}
}

// TestExplorationTraceReplay replays one recorded trace file against the
// scenario its metadata names — reproduction without re-search. It is a
// no-op unless -sched.trace is given.
func TestExplorationTraceReplay(t *testing.T) {
	if *schedTraceFile == "" {
		t.Skip("no -sched.trace file given")
	}
	tr, meta, err := sched.ReadTraceFile(*schedTraceFile)
	if err != nil {
		t.Fatal(err)
	}
	ec, seed, err := traceCell(meta)
	if err != nil {
		t.Fatal(err)
	}
	var run exploreRun
	c := sched.NewController()
	oracle := ec.scenario(seed, &run)(c)
	got, err := sched.ReplayTrace(c, tr, true)
	if err != nil {
		t.Fatalf("trace replay diverged (scenario changed since recording?): %v", err)
	}
	if err := oracle(got); err != nil {
		t.Fatalf("replayed %s seed %d from %s: failure reproduced: %v", ec.shape, seed, *schedTraceFile, err)
	}
	t.Logf("replayed %d decisions from %s: schedule passes", len(got), *schedTraceFile)
}

// TestExplorationReplayIsDeterministic runs one seed twice and requires
// the decision trace, the recorded history and the progress counters to be
// identical — the property that makes both replay knobs meaningful — and
// then cross-validates the trace path: strict ReplayTrace of the recorded
// decisions reproduces the identical history with no seed involved.
func TestExplorationReplayIsDeterministic(t *testing.T) {
	ec, _ := cellFor(workload.Zipfian)
	a, errA := ec.exploreSeeded(42)
	b, errB := ec.exploreSeeded(42)
	if errA != nil || errB != nil {
		t.Fatalf("explorations failed: %v / %v", errA, errB)
	}
	if !reflect.DeepEqual(a.decisions, b.decisions) {
		t.Fatalf("same seed, different schedules:\n%v\nvs\n%v", a.decisions, b.decisions)
	}
	if !reflect.DeepEqual(a.ops, b.ops) {
		t.Fatalf("same seed, different histories:\n%v\nvs\n%v", a.ops, b.ops)
	}
	if a.stats != b.stats {
		t.Fatalf("same seed, different stats: %+v vs %+v", a.stats, b.stats)
	}

	// Round-trip through the trace FILE pipeline — the exact path a CI
	// failure artifact takes into TestExplorationTraceReplay: serialise
	// with the cell's metadata, re-read, rebuild the scenario from the
	// metadata, strict-replay, re-check.
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := sched.WriteTraceFile(path, ec.meta(42), a.decisions); err != nil {
		t.Fatal(err)
	}
	tr, meta, err := sched.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ec2, seed, err := traceCell(meta)
	if err != nil {
		t.Fatal(err)
	}
	if ec2 != ec || seed != 42 {
		t.Fatalf("trace metadata rebuilt cell %+v seed %d, want %+v seed 42", ec2, seed, ec)
	}
	var replayed exploreRun
	c := sched.NewController()
	oracle := ec2.scenario(seed, &replayed)(c)
	got, err := sched.ReplayTrace(c, tr, true)
	if err != nil {
		t.Fatalf("strict replay of recorded decisions diverged: %v", err)
	}
	if err := oracle(got); err != nil {
		t.Fatalf("replayed schedule failed the oracle: %v", err)
	}
	if !reflect.DeepEqual(replayed.ops, a.ops) {
		t.Fatalf("trace replay produced a different history:\n%v\nvs\n%v", replayed.ops, a.ops)
	}
	if replayed.stats != a.stats {
		t.Fatalf("trace replay produced different stats: %+v vs %+v", replayed.stats, a.stats)
	}
}
