package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one unlucky request, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (0 < q <= 1),
// sorted ascending. When fewer than minBeyond samples lie beyond rank
// ceil(q*n), it falls back to the highest rank that keeps minBeyond
// samples beyond it; with no such rank it returns 0.
func percentile(samples []float64, q float64) float64 {
	n := len(samples)
	if n <= minBeyond {
		return 0
	}
	rank := max(int(math.Ceil(q*float64(n))), 1)
	return samples[min(rank, n-minBeyond)-1]
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (0 for none). Unlike percentile it needs no tail support.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is num/den as a per-op figure; a zero base yields 0 rather than a
// NaN or Inf, which JSON cannot carry: no operations means none of the
// counted events happened per operation either.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// residual is the share of total that the parts leave unexplained:
// (total - sum(parts)) / total, 0 when total is 0. Negative means the parts
// overshoot the whole.
func residual(total float64, parts ...float64) float64 {
	sum := 0.0
	for _, p := range parts {
		sum += p
	}
	return ratio(total-sum, total)
}

// poissonSchedule returns the send offsets, from the window start, of an
// open-loop Poisson arrival process at rate requests per second over dur:
// exponential gaps drawn from seed alone, so the same seed and rate give
// the same schedule on every run and every commit.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	// Room for ten standard deviations above the expected count, so the
	// schedule is built in one allocation.
	n := rate * dur.Seconds()
	out := make([]time.Duration, 0, int(n+10*math.Sqrt(n))+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}
