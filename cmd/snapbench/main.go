// Command snapbench sweeps a benchmark matrix (implementations ×
// goroutines × components × scan widths) over the partial snapshot object
// and writes the results — including each cell's final contention Stats
// for implementations that expose them — to BENCH_<scenario>.json, or to
// an explicit path given with -out (alias -o). The default is
// deterministic per scenario: re-running a sweep overwrites its file
// rather than minting timestamped strays.
//
// Scenarios are the named workload shapes of internal/workload (mixed,
// partitioned, zipfian, batch-heavy, scan-heavy, churn, flash-crowd) —
// the same generator the exploration and stress tests model-check, so
// every measured scenario is also a correctness-searched one. A scan
// fraction of -1 (the default) and zero widths take the shape's own
// defaults; so does a -resize-every of 0 for the resizing shapes.
//
// Examples:
//
//	snapbench -impls lockfree,rwmutex -goroutines 1,4,8 \
//	          -components 64 -scan-widths 1,8,64 -duration 200ms
//
//	# The locality workload: goroutines pinned to disjoint component
//	# ranges; emits BENCH_partitioned.json with per-cell Stats.
//	snapbench -scenario partitioned -goroutines 1,2,4,8 -components 64 \
//	          -scan-widths 4 -duration 200ms
//
//	# Hot-head contention: zipfian-skewed component choice.
//	snapbench -scenario zipfian -goroutines 4 -components 64 \
//	          -scan-widths 8 -duration 200ms
//
//	# Epoch churn: worker 0 Grows/Shrinks the universe every 4th op while
//	# the rest update and scan; cells record resize_every so benchdiff
//	# never compares universes of different cadence.
//	snapbench -scenario churn -goroutines 4 -components 64 \
//	          -scan-widths 8 -resize-every 4 -duration 200ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"partialsnapshot/internal/bench"
)

type report struct {
	GeneratedAt string         `json:"generated_at"`
	GoVersion   string         `json:"go_version"`
	NumCPU      int            `json:"num_cpu"`
	Results     []bench.Result `json:"results"`
}

func main() {
	impls := flag.String("impls", "lockfree,rwmutex", "comma-separated implementations (lockfree, rwmutex)")
	scenario := flag.String("scenario", bench.ScenarioMixed,
		fmt.Sprintf("workload scenario %v", bench.Scenarios()))
	goroutines := flag.String("goroutines", "1,4,8", "comma-separated goroutine counts")
	components := flag.String("components", "64", "comma-separated component counts")
	scanWidths := flag.String("scan-widths", "1,8,32", "comma-separated partial-scan widths")
	updateWidth := flag.Int("update-width", 2, "components per update")
	scanFrac := flag.Float64("scan-frac", -1, "fraction of operations that are scans (-1 = the scenario shape's default)")
	resizeEvery := flag.Int("resize-every", 0, "resizing scenarios: worker 0 Grows/Shrinks every Nth op (0 = the shape's default; must stay 0 for fixed-universe scenarios)")
	duration := flag.Duration("duration", 200*time.Millisecond, "duration of each benchmark cell")
	seed := flag.Int64("seed", 1, "workload random seed")
	out := flag.String("out", "", "output path (default BENCH_<scenario>.json)")
	flag.StringVar(out, "o", "", "shorthand for -out")
	flag.Parse()

	implList := strings.Split(*impls, ",")
	gList, err := parseInts(*goroutines)
	if err != nil {
		fail(err)
	}
	cList, err := parseInts(*components)
	if err != nil {
		fail(err)
	}
	wList, err := parseInts(*scanWidths)
	if err != nil {
		fail(err)
	}
	if err := run(*scenario, implList, gList, cList, wList, *updateWidth, *scanFrac, *resizeEvery, *duration, *seed, *out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "snapbench:", err)
	os.Exit(1)
}

func run(scenario string, impls []string, goroutines, components, scanWidths []int, updateWidth int, scanFrac float64, resizeEvery int, duration time.Duration, seed int64, out string) error {
	// A bad scenario name is a sweep-wide mistake: abort before the loop
	// instead of skipping every cell.
	known := scenario == ""
	for _, s := range bench.Scenarios() {
		if scenario == s {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown scenario %q (want one of %v)", scenario, bench.Scenarios())
	}
	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
	}
	for _, n := range components {
		for _, w := range scanWidths {
			if updateWidth > n {
				fmt.Fprintf(os.Stderr, "clamping update width %d to %d components\n", updateWidth, n)
			}
			for _, g := range goroutines {
				for _, impl := range impls {
					cfg := bench.Config{
						Impl:        strings.TrimSpace(impl),
						Scenario:    scenario,
						Goroutines:  g,
						Components:  n,
						ScanWidth:   w,
						UpdateWidth: min(updateWidth, n),
						ScanFrac:    scanFrac,
						ResizeEvery: resizeEvery,
						Duration:    duration,
						Seed:        seed,
					}
					// Infeasible cells (width > components, partitions too
					// narrow for the RESOLVED widths — a 0 width means the
					// shape default, so the raw flag value can't be
					// checked) are skipped; the sweep continues.
					if _, err := bench.Resolve(cfg); err != nil {
						fmt.Fprintf(os.Stderr, "skipping %s cell n=%d w=%d g=%d: %v\n", cfg.Impl, n, w, g, err)
						continue
					}
					res, err := bench.Run(cfg)
					if err != nil {
						return err
					}
					contention := ""
					if res.Stats != nil {
						contention = fmt.Sprintf("  retries=%d visited=%d helps=%d reuses=%d",
							res.Stats.ScanRetries, res.Stats.RecordsVisited, res.Stats.HelpsPosted,
							res.Stats.RecordReuses)
						if res.Stats.ViewsDiscarded > 0 {
							contention += fmt.Sprintf(" views_discarded=%d", res.Stats.ViewsDiscarded)
						}
					}
					allocs := ""
					if res.AllocsPerOp != nil {
						allocs = fmt.Sprintf("  %6.3f allocs/op %7.1f B/op", *res.AllocsPerOp, *res.BytesPerOp)
					}
					churn := ""
					if res.ResizeOps > 0 || res.RejectedOps > 0 {
						churn = fmt.Sprintf("  resizes=%d rejected=%d", res.ResizeOps, res.RejectedOps)
					}
					// res carries the resolved config (shape defaults filled
					// in), so report that width, not the raw flag value.
					fmt.Fprintf(os.Stderr, "%-9s %-11s n=%-4d width=%-3d g=%-3d %12.0f ops/sec%s%s%s\n",
						cfg.Impl, scenario, n, res.ScanWidth, g, res.OpsPerSec, allocs, churn, contention)
					rep.Results = append(rep.Results, res)
				}
			}
		}
	}
	// Skipping is per-cell (one infeasible width should not kill a sweep),
	// but a sweep where EVERY cell was skipped is a sweep-wide mistake —
	// e.g. -resize-every on a fixed-universe scenario — and writing an
	// empty BENCH file with exit 0 would hide it from both the user and
	// benchdiff.
	if len(rep.Results) == 0 {
		return fmt.Errorf("no feasible cells: every cell in the sweep was skipped (see skip lines above)")
	}
	// The default output path is a pure function of the scenario — never a
	// pid or timestamp — so repeated sweeps overwrite one well-known file
	// per scenario instead of littering the tree with stray BENCH_<unix>
	// files that are one `git add -A` away from being committed.
	if out == "" {
		if scenario == "" {
			scenario = bench.ScenarioMixed
		}
		out = fmt.Sprintf("BENCH_%s.json", scenario)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", out)
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
