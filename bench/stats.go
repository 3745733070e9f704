package main

import (
	"math"
	"sort"
)

// numWindows is how many equal-count windows a timed phase is cut
// into. A timing metric is the median of the per-window values, so one
// host stall (which lands in one window) moves nothing.
const numWindows = 10

// tailMinBeyond is how many samples must lie beyond a percentile for
// it to be reported (choosing-metrics §1).
const tailMinBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns 0 for no samples: a layer that did nothing in a run
// reports 0, like a layer that does nothing on a workload.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantileSorted(sortedCopy(xs), 0.5)
}

// tailSupported reports whether n samples leave at least tailMinBeyond
// of them beyond the q-quantile.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= tailMinBeyond
}

// tail returns the q-quantile, or 0 (not reported) when fewer than
// tailMinBeyond samples lie beyond it.
func tail(xs []float64, q float64) float64 {
	if !tailSupported(len(xs), q) {
		return 0
	}
	return quantileSorted(sortedCopy(xs), q)
}

// windowBounds cuts n items into k near-equal consecutive windows and
// returns the k+1 boundaries.
func windowBounds(n, k int) []int {
	b := make([]int, k+1)
	for i := range b {
		b[i] = i * n / k
	}
	return b
}

// windowMedian cuts xs (in operation order) into numWindows equal-count
// windows and returns the median of the per-window medians.
func windowMedian(xs []float64) float64 {
	if len(xs) < numWindows {
		return median(xs)
	}
	b := windowBounds(len(xs), numWindows)
	per := make([]float64, 0, numWindows)
	for w := 0; w < numWindows; w++ {
		per = append(per, median(xs[b[w]:b[w+1]]))
	}
	return median(per)
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the exclusive method), which is what the driver's spread check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
