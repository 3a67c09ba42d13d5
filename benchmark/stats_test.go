package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"median odd", []float64{5, 1, 3}, 0.5, 3},
		{"median even interpolates", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"p10 of 1..11 is the second value", []float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.10, 2},
		{"p10 with n<10 sits between the two smallest", []float64{30, 10, 20}, 0.10, 12},
		{"p10 of one sample is the sample", []float64{7}, 0.10, 7},
		{"ties", []float64{2, 2, 2, 2, 9}, 0.10, 2},
		{"ties across the cut", []float64{1, 1, 1, 5, 5, 5, 5, 5, 5, 5, 5}, 0.10, 1},
		{"min", []float64{3, 1, 2}, 0, 1},
		{"max", []float64{3, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); !near(got, c.want) {
			t.Errorf("%s: quantile(%v, %v) = %v, want %v", c.name, c.xs, c.q, got, c.want)
		}
	}
	if got := p10([]float64{30, 10, 20}); !near(got, 12) {
		t.Errorf("p10 = %v, want 12", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN, never a number")
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// and statistics.median give.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2.0},
		{[]float64{10, 12}, (12.5 - 9.5) / 11.0},
		{[]float64{100, 101, 99, 100, 102, 98, 100, 103, 97, 100}, (101.25 - 98.75) / 100},
	}
	for _, c := range cases {
		if got := quartileSpread(c.xs); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := rangeSpread([]float64{90, 100, 110}); !near(got, 0.2) {
		t.Errorf("rangeSpread = %v, want 0.2", got)
	}
}
