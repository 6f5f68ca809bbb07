package main

import (
	"math"
	"sort"
)

// tailQuantiles are the percentiles a timing's tail is reported at, highest
// first; a timing reports the highest one its sample supports.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// Summary is a timing reported the way every timing in this benchmark is:
// its median and the highest percentile with at least ten samples beyond
// it, with the sample count.
type Summary struct {
	N     int
	P50   float64
	TailQ float64 // the tail percentile, e.g. 0.99; 0 when N < 11
	Tail  float64
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond is how many samples of an n-sample set lie above its nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return n - 1 - i
}

// supportedTail returns the highest tail percentile with at least ten
// samples beyond it, or 0 if even the median has fewer.
func supportedTail(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// summarize sorts a copy of xs and reports its Summary.
func summarize(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := Summary{N: len(s), P50: quantile(s, 0.5)}
	if q := supportedTail(len(s)); q > 0 {
		out.TailQ, out.Tail = q, quantile(s, q)
	}
	return out
}

// percentileWithSupport is the q-quantile of xs if the sample has at least
// ten values beyond it; otherwise ok is false.
func percentileWithSupport(xs []float64, q float64) (v float64, ok bool) {
	if beyond(len(xs), q) < 10 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q), true
}

// percentile is the nearest-rank q-quantile of xs, which it leaves
// unsorted.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
