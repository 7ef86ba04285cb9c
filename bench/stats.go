package main

import (
	"math"
	"sort"
)

// Summary is how every metric is reported: the median of its per-round
// samples, the quartiles around it, and the sample count. A metric with one
// sample (a count, a single set-up) has q1 = median = q3.
type Summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reduces per-round samples to a Summary. Quartiles follow
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so a
// spread printed here is the spread the acceptance driver computes.
func summarize(unit string, samples []float64) Summary {
	s := Summary{Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Q1, s.Median, s.Q3 = quartile(sorted, 1), quartile(sorted, 2), quartile(sorted, 3)
	return s
}

// quartile returns the i-th quartile (i = 1, 2, 3) of sorted samples.
func quartile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// spread is the interquartile range as a share of the median — the quantity
// every bound in the catalogue is compared against.
func (s Summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func median(samples []float64) float64 {
	return summarize("", samples).Median
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range samples {
		sum += x
	}
	return sum / float64(len(samples))
}

// latencyQuantile returns the q-quantile of a latency sample set as the
// order statistic at ceil(q·n) (no interpolation: a reported p99 is a latency
// some request actually had). The slice is sorted in place.
func latencyQuantile(ns []float64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Float64s(ns)
	return ns[max(int(math.Ceil(q*float64(len(ns))))-1, 0)]
}
