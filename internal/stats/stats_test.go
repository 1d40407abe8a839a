package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, 2, 1e-12) || !almostEqual(f.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
	if !almostEqual(f.R2, 1, 1e-12) {
		t.Fatalf("R2 = %g", f.R2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error on single point")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error on constant x")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
}

func TestLinearFitConstantY(t *testing.T) {
	f, err := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, 0, 1e-12) || !almostEqual(f.R2, 1, 1e-12) {
		t.Fatalf("constant-y fit = %+v", f)
	}
}

// Property: a fit of points generated from a line recovers the line.
func TestLinearFitRecoversLineProperty(t *testing.T) {
	f := func(slope, intercept float64, n uint8) bool {
		if math.IsNaN(slope) || math.IsInf(slope, 0) || math.Abs(slope) > 1e6 {
			return true
		}
		if math.IsNaN(intercept) || math.IsInf(intercept, 0) || math.Abs(intercept) > 1e6 {
			return true
		}
		m := int(n%20) + 2
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := 0; i < m; i++ {
			xs[i] = float64(i)
			ys[i] = slope*xs[i] + intercept
		}
		fit, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		tol := 1e-6 * (1 + math.Abs(slope) + math.Abs(intercept))
		return almostEqual(fit.Slope, slope, tol) && almostEqual(fit.Intercept, intercept, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
