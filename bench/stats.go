package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule on a sorted copy; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(p, len(s)), 1)-1]
}

// rank is the nearest-rank position of the p-th percentile among n sorted
// samples: ceil(p/100 * n), computed so that 99.9% of 10000 is 9990 and not,
// by a rounding error, 9991.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// median is the middle value, averaging the two middle ones of an even count.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLevels are the percentiles a tail may be reported at.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest level of tailLevels that leaves at least
// ten samples beyond it — below that a "p99" is one outlier — and returns the
// level with its value. With fewer than 40 samples there is no such level and
// it falls back to the median (level 50).
func tailPercentile(xs []float64) (level, value float64) {
	for _, l := range tailLevels {
		if len(xs)-rank(l, len(xs)) >= 10 {
			return l, percentile(xs, l)
		}
	}
	return 50, median(xs)
}

// ratio is num/den, 0 when the denominator is 0 (nothing was attempted).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
