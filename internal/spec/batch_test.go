package spec

import (
	"fmt"
	"math"
	"sort"
)

// CheckBatch is the batch form of Check, kept as the reference the online
// Checker is tested against (FuzzOnlineCheck): it collects every write of
// the history per component, sorts them, and tests each scan against the
// whole history at once. Its one known difference from Check is the
// degenerate scan that names no component, which it rejects.
func CheckBatch[V comparable](n int, ops []Op[V]) error {
	var zero V
	perComp := make([][]write[V], n)
	for _, op := range ops {
		if op.Kind != Update {
			continue
		}
		if len(op.Vals) != len(op.Comps) {
			return fmt.Errorf("spec: malformed update op: %d values for %d components", len(op.Vals), len(op.Comps))
		}
		for i, c := range op.Comps {
			if c < 0 || c >= n {
				return fmt.Errorf("spec: update names component %d out of range [0,%d)", c, n)
			}
			perComp[c] = append(perComp[c], write[V]{start: op.Start, end: op.End, val: op.Vals[i]})
		}
	}
	// Sort each component's writes by start and precompute the suffix
	// minimum of end times, so "earliest definite overwrite after w" is a
	// binary search away.
	sufMinEnd := make([][]int64, n)
	for c := range perComp {
		ws := perComp[c]
		sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
		suf := make([]int64, len(ws)+1)
		suf[len(ws)] = math.MaxInt64
		for i := len(ws) - 1; i >= 0; i-- {
			suf[i] = min(suf[i+1], ws[i].end)
		}
		sufMinEnd[c] = suf
	}
	for si, op := range ops {
		if op.Kind != Scan {
			continue
		}
		if len(op.Vals) != len(op.Comps) {
			return fmt.Errorf("spec: malformed scan op: %d values for %d components", len(op.Vals), len(op.Comps))
		}
		// Per observed component, the set of feasibility windows (one per
		// candidate write of the observed value), clipped to the scan.
		cands := make([][]interval, len(op.Comps))
		for i, c := range op.Comps {
			if c < 0 || c >= n {
				return fmt.Errorf("spec: scan names component %d out of range [0,%d)", c, n)
			}
			v := op.Vals[i]
			var ivs []interval
			if v == zero {
				// Initial value: plausible until any write definitely completed.
				ivs = append(ivs, interval{lo: math.MinInt64, hi: sufMinEnd[c][0]})
			}
			ws := perComp[c]
			for _, w := range ws {
				if w.val != v {
					continue
				}
				// First write definitely after w: start > w.end.
				k := sort.Search(len(ws), func(j int) bool { return ws[j].start > w.end })
				ivs = append(ivs, interval{lo: w.start, hi: sufMinEnd[c][k]})
			}
			var clipped []interval
			for _, iv := range ivs {
				lo := max(iv.lo, op.Start)
				hi := min(iv.hi, op.End)
				if lo <= hi {
					clipped = append(clipped, interval{lo: lo, hi: hi})
				}
			}
			if len(clipped) == 0 {
				return fmt.Errorf("spec: scan %d (interval [%d,%d]) observed %v on component %d, which no admissible write produced",
					si, op.Start, op.End, v, c)
			}
			cands[i] = clipped
		}
		if !batchCommonInstant(cands) {
			return fmt.Errorf("spec: scan %d (interval [%d,%d]) over components %v observed %v: no single instant admits all values (torn scan)",
				si, op.Start, op.End, op.Comps, op.Vals)
		}
	}
	return nil
}

// batchCommonInstant reports whether some instant t is covered by at least one
// interval of every component's candidate list. Candidate instants are the
// interval lower bounds (coverage can only begin at a lower bound).
func batchCommonInstant(cands [][]interval) bool {
	var points []int64
	for _, ivs := range cands {
		for _, iv := range ivs {
			points = append(points, iv.lo)
		}
	}
	for _, t := range points {
		ok := true
		for _, ivs := range cands {
			covered := false
			for _, iv := range ivs {
				if iv.lo <= t && t <= iv.hi {
					covered = true
					break
				}
			}
			if !covered {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
