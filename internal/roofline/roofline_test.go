package roofline

import (
	"math"
	"testing"
	"testing/quick"

	"tenways/internal/machine"
)

func TestAttainableTwoRegimes(t *testing.T) {
	s := machine.Petascale2009()
	ridge := s.RidgeIntensity()
	// Well below the ridge: bandwidth bound.
	low := Attainable(s, ridge/10)
	if math.Abs(low-s.DRAM.BytesPerSec*ridge/10) > 1e-6*low {
		t.Fatalf("below ridge should be bw*AI: %g", low)
	}
	// Well above: compute bound at peak.
	high := Attainable(s, ridge*10)
	if high != s.PeakFlopsPerNode() {
		t.Fatalf("above ridge should be peak: %g", high)
	}
	// Monotone non-decreasing in intensity.
	if low > high {
		t.Fatal("roofline not monotone")
	}
}

func TestClassify(t *testing.T) {
	s := machine.Petascale2009()
	ridge := s.RidgeIntensity()
	p := Classify(s, "triad", ridge/100)
	if p.Bound != "memory" {
		t.Fatalf("triad should be memory bound, got %s", p.Bound)
	}
	q := Classify(s, "nbody", ridge*100)
	if q.Bound != "compute" {
		t.Fatalf("nbody should be compute bound, got %s", q.Bound)
	}
	if p.Kernel != "triad" || p.Intensity != ridge/100 {
		t.Fatal("point fields not set")
	}
}

func TestEfficiencyAtRidgeIsOne(t *testing.T) {
	s := machine.Laptop2009()
	if e := Efficiency(s, s.RidgeIntensity()); math.Abs(e-1) > 1e-9 {
		t.Fatalf("efficiency at ridge = %g", e)
	}
	if e := Efficiency(s, s.RidgeIntensity()/2); math.Abs(e-0.5) > 1e-9 {
		t.Fatalf("efficiency at ridge/2 = %g", e)
	}
}

func TestTimeSec(t *testing.T) {
	s := machine.Laptop2009()
	flops := 1e9
	at := Attainable(s, 100)
	if got := TimeSec(s, flops, 100); math.Abs(got-flops/at) > 1e-15 {
		t.Fatalf("time = %g", got)
	}
}

func TestExascaleRidgeFartherRight(t *testing.T) {
	// The keynote's point: future machines demand higher intensity.
	if machine.Exascale().RidgeIntensity() <= machine.Laptop2009().RidgeIntensity() {
		t.Fatal("exascale ridge should exceed laptop ridge")
	}
}

func TestAttainableMonotoneProperty(t *testing.T) {
	s := machine.Petascale2009()
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return Attainable(s, lo) <= Attainable(s, hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
