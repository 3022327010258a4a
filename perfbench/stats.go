package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile: a percentile with fewer samples past it is one or two
// outliers, not a tail.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[min(rank(n, p), n)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps decimal percentiles such as 99.9 from rounding up a
// whole rank.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// beyond counts the samples strictly past the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentile returns the highest of the candidate percentiles that has
// at least minTail samples beyond it among n samples, or 0 when even the
// median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		if beyond(n, p) >= minTail {
			return p
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of
// values with the same "exclusive" interpolation as Python's
// statistics.quantiles(values, n=4). With fewer than two values every
// quartile is that value (or NaN when empty).
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle of values (the mean of the two middle values
// for an even count), NaN when empty.
func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// msSorted converts durations to sorted milliseconds.
func msSorted(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is num/den, 0 when den is 0: a layer that did no work reports 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
