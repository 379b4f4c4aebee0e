package main

import (
	"math"
	"sort"
)

// summary is how every metric is reported: the median over its samples with
// the quartiles, the extremes and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize reduces samples to a summary. The quartiles are those of
// Python's statistics.quantiles(values, n=4), so a spread computed from a
// summary matches one computed from the raw values by that function.
func summarize(vals []float64, unit string) summary {
	s := summary{N: len(vals), Unit: unit}
	if len(vals) == 0 {
		return s
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Q1, s.Median, s.Q3 = quantile(v, 1), quantile(v, 2), quantile(v, 3)
	return s
}

// quantile returns the i-th quartile of sorted (the "exclusive" method: the
// i-th of n cut points sits at position i*(len+1)/n, interpolated linearly).
func quantile(sorted []float64, i int) float64 {
	const n = 4
	ld := len(sorted)
	if ld == 1 {
		return sorted[0]
	}
	m := ld + 1
	j := i * m / n
	j = max(1, min(j, ld-1))
	delta := float64(i*m - j*n)
	return (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	return v[max(1, min(rank, len(v)))-1]
}

func median(vals []float64) float64 { return summarize(vals, "").Median }
