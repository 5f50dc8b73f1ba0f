package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle samples for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// minMax returns the smallest and largest sample, or zeros for none.
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := rankOf(len(s), p)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailSamples is how many samples must lie beyond a percentile before
// it is reported: with fewer, the percentile is one or two outliers.
const tailSamples = 10

// rankOf is the nearest rank of the p-th percentile among n samples.
// The epsilon keeps 99.9 % of 10000 at 9990 despite binary rounding.
func rankOf(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// beyond reports how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return n - rankOf(n, p) }

// highestPercentile returns the highest of the usual tail percentiles
// that still has at least tailSamples samples beyond it, or 0 when not
// even p90 does (then only median, min and max are meaningful).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if beyond(n, p) >= tailSamples {
			best = p
		}
	}
	return best
}
