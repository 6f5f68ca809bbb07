package main

import (
	"math"
	"testing"
)

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
		if q := supportedTail(c.n); q > 0 && beyond(c.n, q) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, q*100, beyond(c.n, q))
		}
	}
}

func TestSummarizeUsesNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailQ != 0.99 || s.Tail != 990 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p99=990", s)
	}
	if xs[0] != 1000 {
		t.Fatal("summarize reordered its input")
	}
	if v, ok := percentileWithSupport(xs, 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1000 samples = %v, %v", v, ok)
	}
	if _, ok := percentileWithSupport(xs[:999], 0.99); ok {
		t.Fatal("999 samples must not support a 99th percentile")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("quantile of nothing must be NaN")
	}
}
