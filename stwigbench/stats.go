package main

import (
	"math"
	"slices"
)

// noSample marks an operation slot that never produced a latency: a failed
// op has no floor and is left out of every statistic.
const noSample = math.MaxInt64

// floors folds pass samples into per-op floors: floors[i] is the minimum of
// samples[k][i] over every pass k. The machine's noise is additive and
// one-sided (steal, neighbours, GC), so the minimum over passes is the
// repeatable statistic where the median is not.
func floors(samples [][]int64) []int64 {
	if len(samples) == 0 {
		return nil
	}
	out := make([]int64, len(samples[0]))
	for i := range out {
		out[i] = noSample
	}
	for _, pass := range samples {
		for i, v := range pass {
			if v < out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// valid drops the noSample slots.
func valid(xs []int64) []int64 {
	out := make([]int64, 0, len(xs))
	for _, v := range xs {
		if v != noSample {
			out = append(out, v)
		}
	}
	return out
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice. xs is not modified.
func percentile[T int64 | float64](xs []T, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[hi])*frac
}

func sum(xs []int64) int64 {
	var t int64
	for _, v := range xs {
		t += v
	}
	return t
}

// sub returns a[i]-b[i] clamped at zero, skipping slots either side lacks.
func sub(a, b []int64) []int64 {
	out := make([]int64, 0, len(a))
	for i := range a {
		if a[i] == noSample || b[i] == noSample {
			continue
		}
		out = append(out, max(a[i]-b[i], 0))
	}
	return out
}

// ratio is a/b with 0 for an empty denominator, so a workload without the
// measured thing (no updates, no coordinator) reports 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
