package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{5, 15}, {20, 15}, {21, 20}, {30, 20}, {40, 20}, {50, 35}, {60, 35}, {99, 50}, {100, 50},
	}
	for _, c := range cases {
		got := nearestRank(xs, c.p)
		if got.Value != c.want || got.N != len(xs) {
			t.Errorf("p%v of %v = %+v, want %v with n=%d", c.p, xs, got, c.want, len(xs))
		}
	}
	// Unsorted input, and the input is left alone.
	ys := []float64{9, 1, 5, 3, 7}
	if got := nearestRank(ys, 50); got.Value != 5 || got.N != 5 {
		t.Errorf("median of %v = %+v, want 5", ys, got)
	}
	if ys[0] != 9 {
		t.Errorf("nearestRank sorted its input in place: %v", ys)
	}
	// p99 of 100 samples is the 99th smallest: one sample lies beyond it.
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := nearestRank(hundred, 99); got.Value != 99 || got.N != 100 {
		t.Errorf("p99 of 1..100 = %+v, want 99 with n=100", got)
	}
	if got := nearestRank(nil, 50); !math.IsNaN(got.Value) || got.N != 0 {
		t.Errorf("percentile of no samples = %+v, want NaN with n=0", got)
	}
	if got := nearestRank([]float64{4}, 99); got.Value != 4 || got.N != 1 {
		t.Errorf("p99 of one sample = %+v, want 4", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4)
// (method "exclusive"), the rule bench/README.md states spreads by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 2, 3},
		// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
		{[]float64{10, 20}, 7.5, 15, 22.5},
		// statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
