package main

import (
	"math"
	"testing"
)

func TestTailRule(t *testing.T) {
	for n, want := range map[int]float64{5000: 0.99, 3000: 0.99, 2999: 0.98, 1500: 0.98, 1499: 0.95, 600: 0.95, 599: 0.90, 300: 0.90, 0: 0.90} {
		if q := tailRule(n); q != want {
			t.Errorf("tailRule(%d) = %v, want %v", n, q, want)
		}
	}
}

// Every workload's fixed step tail must leave at least ten samples
// beyond it at the lowest step count of its baseline runs (README.md,
// "Tail quantiles").
func TestFixedTailsLeaveTenBeyond(t *testing.T) {
	lowest := map[string]int{"cascade": 1116, "batch-dense": 572, "durable-echo": 640, "churn-scrape": 288}
	for _, w := range workloads {
		if beyond := float64(lowest[w.name]) * (1 - w.stepTail); beyond < 10 {
			t.Errorf("%s: p%v leaves %.1f of %d steps beyond it", w.name, 100*w.stepTail, beyond, lowest[w.name])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.25: 2, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{7, 1, 4, 9, 2, 8, 3}, 2, 4, 8},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
