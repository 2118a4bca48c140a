// Command benchhist renders the committed BENCH_*.json files into a single
// BENCH_HISTORY.md: one row per benchmark cell, one column per BENCH file
// (ordered by generation time), so the repository carries a human-readable
// throughput trajectory next to the machine-readable baselines benchdiff
// gates on.
//
// Where benchdiff answers "did this change regress a cell beyond policy?",
// benchhist answers "how has each cell moved across the committed
// baselines?" — it applies no thresholds and never fails; it only renders.
// Cells are matched by the same workload dimensions benchdiff keys on
// (implementation, scenario, goroutines, components, widths, scan fraction,
// seed), so a churn cell is never charted against a fixed-universe one.
//
// Usage:
//
//	benchhist [-out BENCH_HISTORY.md] [BENCH_a.json BENCH_b.json ...]
//
// With no file arguments it globs BENCH_*.json in the current directory.
// The output is deterministic for a fixed input set: files sort by their
// generated_at stamp (name as tiebreak), cells sort by their key.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"partialsnapshot/internal/bench"
)

type benchFile struct {
	Path        string         `json:"-"`
	GeneratedAt string         `json:"generated_at"`
	GoVersion   string         `json:"go_version"`
	NumCPU      int            `json:"num_cpu"`
	Results     []bench.Result `json:"results"`
}

// cellKey mirrors cmd/benchdiff's cell identity: the workload dimensions,
// duration excluded.
type cellKey struct {
	Impl        string
	Scenario    string
	Goroutines  int
	Components  int
	ScanWidth   int
	UpdateWidth int
	ScanFrac    float64
	Seed        int64
}

func keyOf(r bench.Result) cellKey {
	scenario := r.Scenario
	if scenario == "" {
		scenario = bench.ScenarioMixed
	}
	return cellKey{
		Impl:        r.Impl,
		Scenario:    scenario,
		Goroutines:  r.Goroutines,
		Components:  r.Components,
		ScanWidth:   r.ScanWidth,
		UpdateWidth: r.UpdateWidth,
		ScanFrac:    r.ScanFrac,
		Seed:        r.Seed,
	}
}

func (k cellKey) String() string {
	s := fmt.Sprintf("%s/%s g=%d n=%d scanW=%d updW=%d", k.Impl, k.Scenario,
		k.Goroutines, k.Components, k.ScanWidth, k.UpdateWidth)
	return s
}

func main() {
	out := flag.String("out", "BENCH_HISTORY.md", "output markdown path")
	flag.Parse()

	paths := flag.Args()
	if len(paths) == 0 {
		var err error
		paths, err = filepath.Glob("BENCH_*.json")
		if err != nil {
			fail(err)
		}
	}
	if len(paths) == 0 {
		fail(fmt.Errorf("no BENCH_*.json files found"))
	}

	files, err := load(paths)
	if err != nil {
		fail(err)
	}
	md := render(files)
	if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "benchhist: wrote %s (%d files, %d cells)\n",
		*out, len(files), countCells(files))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchhist:", err)
	os.Exit(1)
}

func load(paths []string) ([]benchFile, error) {
	files := make([]benchFile, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f benchFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		// Only snapbench matrices belong in the history; other BENCH_*.json
		// artifacts (e.g. the snapload serving report) carry no cells.
		if len(f.Results) == 0 {
			fmt.Fprintf(os.Stderr, "benchhist: skipping %s: no benchmark cells\n", p)
			continue
		}
		f.Path = filepath.Base(p)
		files = append(files, f)
	}
	// RFC3339 stamps sort correctly as strings; the path tiebreak keeps the
	// rendering stable when two sweeps share a timestamp.
	sort.Slice(files, func(i, j int) bool {
		if files[i].GeneratedAt != files[j].GeneratedAt {
			return files[i].GeneratedAt < files[j].GeneratedAt
		}
		return files[i].Path < files[j].Path
	})
	return files, nil
}

func countCells(files []benchFile) int {
	seen := make(map[cellKey]bool)
	for _, f := range files {
		for _, r := range f.Results {
			seen[keyOf(r)] = true
		}
	}
	return len(seen)
}

// spark renders a row's throughput trajectory as a unicode sparkline,
// normalised over the row's own min..max so each cell's shape is visible
// regardless of its absolute scale. Missing entries render as spaces.
func spark(vals []float64, present []bool) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	lo, hi := 0.0, 0.0
	first := true
	for i, v := range vals {
		if !present[i] {
			continue
		}
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	var b strings.Builder
	for i, v := range vals {
		if !present[i] {
			b.WriteRune(' ')
			continue
		}
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

func render(files []benchFile) string {
	// series[key][fileIdx] is that cell's result in that file, if present.
	series := make(map[cellKey][]*bench.Result)
	for i := range files {
		for j := range files[i].Results {
			r := &files[i].Results[j]
			k := keyOf(*r)
			if series[k] == nil {
				series[k] = make([]*bench.Result, len(files))
			}
			series[k][i] = r
		}
	}
	keys := make([]cellKey, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	var b strings.Builder
	b.WriteString("# Benchmark history\n\n")
	b.WriteString("Generated by `go run ./cmd/benchhist` from the committed " +
		"`BENCH_*.json` baselines — do not edit by hand; regenerate after " +
		"refreshing a baseline.\n\n")
	b.WriteString("Throughput is ops/sec as recorded by cmd/snapbench on the " +
		"machine that produced each file; columns are therefore comparable " +
		"down a column, only loosely across columns (cmd/benchdiff's " +
		"calibrated gate is the cross-machine comparison). Δ is the change " +
		"against the previous file that has the cell.\n\n")

	b.WriteString("## Files\n\n")
	b.WriteString("| file | generated | go | cpus | cells |\n")
	b.WriteString("|---|---|---|---:|---:|\n")
	for _, f := range files {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %d | %d |\n",
			f.Path, f.GeneratedAt, f.GoVersion, f.NumCPU, len(f.Results))
	}

	b.WriteString("\n## Throughput trajectory\n\n")
	b.WriteString("| cell |")
	for _, f := range files {
		fmt.Fprintf(&b, " `%s` |", f.Path)
	}
	b.WriteString(" trend |\n|---|")
	for range files {
		b.WriteString("---:|")
	}
	b.WriteString("---|\n")
	for _, k := range keys {
		row := series[k]
		vals := make([]float64, len(files))
		present := make([]bool, len(files))
		fmt.Fprintf(&b, "| %s |", k)
		prev := -1
		for i, r := range row {
			if r == nil {
				b.WriteString(" — |")
				continue
			}
			vals[i], present[i] = r.OpsPerSec, true
			cell := fmt.Sprintf(" %.2fM", r.OpsPerSec/1e6)
			if prev >= 0 && vals[prev] > 0 {
				cell += fmt.Sprintf(" (%+.1f%%)", (r.OpsPerSec/vals[prev]-1)*100)
			}
			prev = i
			b.WriteString(cell + " |")
		}
		fmt.Fprintf(&b, " `%s` |\n", spark(vals, present))
	}

	b.WriteString("\n## Allocations (single-goroutine cells)\n\n")
	b.WriteString("Steady-state allocs/op for g=1 cells — the figure the " +
		"benchdiff gate bounds absolutely, since it is machine-independent.\n\n")
	b.WriteString("| cell |")
	for _, f := range files {
		fmt.Fprintf(&b, " `%s` |", f.Path)
	}
	b.WriteString("\n|---|")
	for range files {
		b.WriteString("---:|")
	}
	b.WriteString("\n")
	for _, k := range keys {
		if k.Goroutines != 1 {
			continue
		}
		fmt.Fprintf(&b, "| %s |", k)
		for _, r := range series[k] {
			if r == nil || r.AllocsPerOp == nil {
				b.WriteString(" — |")
				continue
			}
			b.WriteString(fmt.Sprintf(" %.3f |", *r.AllocsPerOp))
		}
		b.WriteString("\n")
	}
	return b.String()
}
