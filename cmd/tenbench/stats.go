package main

import (
	"math"
	"sort"
)

// Summary is one metric over the reps of a run: the raw per-rep values in
// rep order plus their median, quartiles and count.
type Summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

// summarize fills the order statistics of vs. A metric no rep produced,
// such as a p99 without enough samples beyond it, keeps N = 0. Values
// that are not finite come only from failed reps, which are counted as
// failures already; they are left out so the results stay valid JSON.
func summarize(m Metric, vs []float64) Summary {
	s := Summary{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Values: make([]float64, 0, len(vs))}
	for _, v := range vs {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			s.Values = append(s.Values, v)
		}
	}
	s.N = len(s.Values)
	if s.N > 0 {
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
	}
	return s
}

// IQRShare is the distance between the quartiles as a share of the
// median, the spread the bound is judged against.
func (s Summary) IQRShare() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quartiles returns q1, median, q3 by the exclusive method of Python's
// statistics.quantiles(n=4), so the benchmark's spread matches what a
// reader recomputes from the raw values. vs must not be empty; one value
// is its own quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	ld := len(d)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], median(d), q[2]
}

// median of the values; the middle pair is averaged.
func median(vs []float64) float64 {
	d := append([]float64(nil), vs...)
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

// minTail is how many samples must lie beyond a percentile before it is
// reported: fewer make the tail one or two unlucky samples.
const minTail = 10

// percentile returns the nearest-rank q-quantile of sorted, and false when
// fewer than minTail samples lie beyond it (p99 needs 1000 samples).
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n-1-i < minTail {
		return sorted[i], false
	}
	return sorted[i], true
}
