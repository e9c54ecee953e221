package main

import (
	"math"
	"sort"
	"time"
)

// Percentile is a nearest-rank percentile together with the number of
// samples it was taken over, so a report can say how many samples lie
// beyond it.
type Percentile struct {
	Value float64
	N     int
}

// nearestRank returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule: the smallest sample such that at least p% of the
// samples are ≤ it. It never interpolates, so the value is always one
// that was measured. An empty input yields N = 0 and Value = NaN.
func nearestRank(xs []float64, p float64) Percentile {
	if len(xs) == 0 {
		return Percentile{Value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return Percentile{Value: s[rank-1], N: len(s)}
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return nearestRank(xs, 50).Value }

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// the rule bench/README.md states run-to-run spreads by. It needs at
// least two samples; with fewer every quartile is the lone sample (or
// NaN).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// seconds converts a float second count to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ms converts durations to float milliseconds for percentile math.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
