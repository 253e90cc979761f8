package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even
// counts); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// cv is the coefficient of variation (sample sd over mean).
func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / math.Abs(mean)
}

// tailSamples is how many samples a reported percentile must leave beyond
// it (choosing-metrics §1).
const tailSamples = 10

// rank is the nearest-rank position (1-based) of the q-quantile among n
// ascending samples; the epsilon keeps 0.99·1000 at 990 whatever the
// product's last bit says.
func rank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

// percentileSupported reports whether n samples leave at least tailSamples
// beyond the q-quantile.
func percentileSupported(n int, q float64) bool {
	return n-rank(n, q) >= tailSamples
}

// quantile reads the q-quantile of xs by nearest rank; NaN for an empty
// sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// quiet is the estimator behind every end-to-end time: the lower decile of
// the run's repeats of identical work — the speed the program reaches when
// the shared host leaves it alone, which is the one speed that repeats from
// run to run (README.md, "Why these estimators"). Up to ten samples it is
// the minimum.
func quiet(xs []float64) float64 { return quantile(xs, 0.10) }

// quietRate is the same estimator for a rate, where higher is quieter.
func quietRate(xs []float64) float64 { return quantile(xs, 0.90) }
