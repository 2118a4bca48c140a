package main

import (
	"fmt"
	"sort"
	"strings"

	"partialsnapshot/internal/bench"
)

// This file is the comparison engine of benchdiff: pure functions from two
// parsed BENCH files to a verdict, kept free of flag parsing and IO so the
// gate's policy is unit-testable.

// benchFile mirrors the report cmd/snapbench writes.
type benchFile struct {
	GeneratedAt string         `json:"generated_at"`
	GoVersion   string         `json:"go_version"`
	NumCPU      int            `json:"num_cpu"`
	Results     []bench.Result `json:"results"`
}

// cellKey identifies a benchmark cell across files by its workload
// dimensions. Duration is deliberately excluded: a committed baseline and
// a CI re-run may time their cells differently without changing what the
// cell measures.
type cellKey struct {
	Impl        string
	Scenario    string
	Goroutines  int
	Components  int
	ScanWidth   int
	UpdateWidth int
	ScanFrac    float64
	// ResizeEvery is the churn cadence of resizing scenarios (0 for
	// fixed-universe cells, and for files predating the field). Keying on
	// it guarantees a churn cell is never compared against a fixed-universe
	// cell — or against a churn cell of a different cadence — since those
	// measure different universes.
	ResizeEvery int
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
		ResizeEvery: r.ResizeEvery,
		Seed:        r.Seed,
	}
}

func (k cellKey) String() string {
	s := fmt.Sprintf("%s/%s g=%d n=%d scanW=%d updW=%d", k.Impl, k.Scenario,
		k.Goroutines, k.Components, k.ScanWidth, k.UpdateWidth)
	if k.ResizeEvery != 0 {
		s += fmt.Sprintf(" resizeEvery=%d", k.ResizeEvery)
	}
	return s
}

// options is the gate's policy.
type options struct {
	// opsDrop is the maximum tolerated fractional drop in (calibrated)
	// ops/sec before a cell fails, e.g. 0.20.
	opsDrop float64
	// allocSlack is the maximum tolerated allocs/op increase in
	// single-goroutine cells before a cell fails. Multi-goroutine cells
	// are reported but never gated on allocations: their per-op numbers
	// divide shared harness noise across racing workers.
	allocSlack float64
	// calibrate divides every cell's throughput ratio by the median ratio
	// across all cells, so the gate measures cells that regressed relative
	// to the machine the new file was produced on, not absolute speed
	// differences between the baseline machine and this one. Allocation
	// comparisons are always absolute — allocs/op is machine-independent.
	calibrate bool
	// opsMaxGoroutines, when positive, restricts the throughput gate to
	// cells with at most that many goroutines. Cells oversubscribing the
	// host (goroutines > cores, common on small CI runners) have per-cell
	// jitter calibration cannot remove; they still appear in the report
	// and still feed the calibration median, they just cannot fail the
	// gate on throughput alone.
	opsMaxGoroutines int
	// allowMissing downgrades baseline cells absent from the new file from
	// failures to notes.
	allowMissing bool
}

// cellDiff is one matched cell's comparison.
type cellDiff struct {
	key      cellKey
	old, new bench.Result
	// ratio is new/old ops/sec; calRatio is ratio divided by the report's
	// speed factor (equal to ratio when calibration is off).
	ratio, calRatio float64
	// failures lists this cell's gate violations (empty = pass).
	failures []string
}

// diffReport is the whole comparison.
type diffReport struct {
	// speedFactor is the median new/old throughput ratio over all matched
	// cells — the "this machine vs the baseline machine" estimate
	// calibration divides out. 1 when calibration is off or nothing
	// matched.
	speedFactor  float64
	cells        []cellDiff
	missingInNew []cellKey
	extraInNew   []cellKey
	// failures counts gate violations, missing baseline cells included
	// (unless allowMissing).
	failures int
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// diff compares every cell of the baseline against the new file under the
// gate policy.
func diff(oldF, newF *benchFile, opt options) *diffReport {
	newByKey := make(map[cellKey]bench.Result, len(newF.Results))
	for _, r := range newF.Results {
		newByKey[keyOf(r)] = r
	}
	matchedNew := make(map[cellKey]bool)

	rep := &diffReport{speedFactor: 1}
	var ratios []float64
	for _, o := range oldF.Results {
		k := keyOf(o)
		n, ok := newByKey[k]
		if !ok {
			rep.missingInNew = append(rep.missingInNew, k)
			if !opt.allowMissing {
				rep.failures++
			}
			continue
		}
		matchedNew[k] = true
		d := cellDiff{key: k, old: o, new: n, ratio: 1}
		if o.OpsPerSec > 0 {
			d.ratio = n.OpsPerSec / o.OpsPerSec
		}
		ratios = append(ratios, d.ratio)
		rep.cells = append(rep.cells, d)
	}
	for _, r := range newF.Results {
		if k := keyOf(r); !matchedNew[k] {
			rep.extraInNew = append(rep.extraInNew, k)
		}
	}
	if opt.calibrate {
		rep.speedFactor = median(ratios)
	}

	for i := range rep.cells {
		d := &rep.cells[i]
		d.calRatio = d.ratio / rep.speedFactor
		opsGated := opt.opsMaxGoroutines <= 0 || d.key.Goroutines <= opt.opsMaxGoroutines
		if opsGated && d.calRatio < 1-opt.opsDrop {
			d.failures = append(d.failures, fmt.Sprintf(
				"ops/sec dropped %.1f%% (limit %.0f%%)", (1-d.calRatio)*100, opt.opsDrop*100))
		}
		if d.key.Goroutines == 1 && d.old.AllocsPerOp != nil && d.new.AllocsPerOp != nil {
			if delta := *d.new.AllocsPerOp - *d.old.AllocsPerOp; delta > opt.allocSlack {
				d.failures = append(d.failures, fmt.Sprintf(
					"allocs/op rose %.3f → %.3f (slack %.3f)",
					*d.old.AllocsPerOp, *d.new.AllocsPerOp, opt.allocSlack))
			}
		}
		rep.failures += len(d.failures)
	}
	return rep
}

func fmtAlloc(p *float64) string {
	if p == nil {
		return "—"
	}
	return fmt.Sprintf("%.3f", *p)
}

func fmtBytes(p *float64) string {
	if p == nil {
		return "—"
	}
	return fmt.Sprintf("%.0f", *p)
}

// markdown renders the comparison as the report the CI gate uploads.
func (rep *diffReport) markdown(oldPath, newPath string, opt options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# benchdiff: `%s` → `%s`\n\n", oldPath, newPath)
	if rep.failures == 0 {
		b.WriteString("**PASS** — no cell regressed beyond the thresholds.\n\n")
	} else {
		fmt.Fprintf(&b, "**FAIL** — %d violation(s).\n\n", rep.failures)
	}
	fmt.Fprintf(&b, "Policy: max ops/sec drop %.0f%%, max allocs/op increase %.3f (single-goroutine cells)",
		opt.opsDrop*100, opt.allocSlack)
	if opt.calibrate {
		fmt.Fprintf(&b, ", calibrated by the median throughput ratio %.3f", rep.speedFactor)
	}
	b.WriteString(".\n\n")
	b.WriteString("| cell | ops/s old | ops/s new | Δ | cal Δ | allocs/op old | allocs/op new | B/op old | B/op new | verdict |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n")
	for _, d := range rep.cells {
		verdict := "ok"
		if len(d.failures) > 0 {
			verdict = "**" + strings.Join(d.failures, "; ") + "**"
		}
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %+.1f%% | %+.1f%% | %s | %s | %s | %s | %s |\n",
			d.key, d.old.OpsPerSec, d.new.OpsPerSec,
			(d.ratio-1)*100, (d.calRatio-1)*100,
			fmtAlloc(d.old.AllocsPerOp), fmtAlloc(d.new.AllocsPerOp),
			fmtBytes(d.old.BytesPerOp), fmtBytes(d.new.BytesPerOp),
			verdict)
	}
	if len(rep.missingInNew) > 0 {
		b.WriteString("\nBaseline cells missing from the new file")
		if !opt.allowMissing {
			b.WriteString(" (each counts as a violation)")
		}
		b.WriteString(":\n\n")
		for _, k := range rep.missingInNew {
			fmt.Fprintf(&b, "- %s\n", k)
		}
	}
	if len(rep.extraInNew) > 0 {
		b.WriteString("\nNew cells with no baseline (not gated):\n\n")
		for _, k := range rep.extraInNew {
			fmt.Fprintf(&b, "- %s\n", k)
		}
	}
	return b.String()
}
