package main

import (
	"math"
	"sort"
)

// Estimators. Interference on a shared host only ever ADDS time, so a
// wall-clock cost is estimated by its 10th percentile: the lower tail
// repeats run to run where the mean and the median follow whatever
// regime the hypervisor was in. User-visible latencies are the opposite
// case — the user pays for the stalls too — and are reported as p50 and
// p90 measured from the job's due time.

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics (the "type 7" estimator, the
// default of R and NumPy). xs need not be sorted and is not modified.
// An empty xs yields NaN so a missing sample set can never pass for a
// measurement.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// p10 is the cost estimator (see the comment at the top of the file).
func p10(xs []float64) float64 { return quantile(xs, 0.10) }

func median(xs []float64) float64 { return quantile(xs, 0.50) }

// quartileSpread returns (Q3-Q1)/median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// spread the benchmark's acceptance check computes over ten seeds, so
// -repeat reports the same number the check will see. It needs at least
// two values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
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
	return (cut(3) - cut(1)) / quantileSorted(s, 0.5)
}

// rangeSpread returns (max-min)/median, the run-to-run range the
// calibration table prints next to each bound.
func rangeSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[len(s)-1] - s[0]) / quantileSorted(s, 0.5)
}
