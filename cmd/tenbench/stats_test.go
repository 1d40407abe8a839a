package main

import (
	"math"
	"testing"
)

// The quartiles must be Python's statistics.quantiles(n=4), the method a
// reader of the raw values uses to recompute the spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1.5, 2.5, 10, 4, 7, 7.5, 0.5}, 1.5, 4, 7.5},
		{[]float64{42}, 42, 42, 42},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// A percentile is reported only with at least ten samples beyond it, so
// p99 needs 1000 samples and p50 needs 20.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.50, false},
		{20, 0.50, true},
		{0, 0.50, false},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) ok = %v, want %v", c.n, c.q, ok, c.ok)
		}
		if c.n == 1000 && v != 990 {
			t.Errorf("p99 of 1..1000 = %g, want 990", v)
		}
	}
}

func TestSummarizeDropsNonFinite(t *testing.T) {
	s := summarize(Metric{Name: "x", Unit: "s"}, []float64{1, math.NaN(), 3, math.Inf(1)})
	if s.N != 2 || s.Median != 2 {
		t.Fatalf("summary = %+v, want n=2 median=2", s)
	}
	if e := summarize(Metric{Name: "x"}, nil); e.N != 0 || e.Median != 0 {
		t.Fatalf("empty summary = %+v, want zeros", e)
	}
}
