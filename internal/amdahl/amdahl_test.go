package amdahl

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpeedupKnownValues(t *testing.T) {
	// f=0.1, p=10: 1/(0.1+0.09) ~ 5.263
	if got := Speedup(0.1, 10); math.Abs(got-1/0.19) > 1e-12 {
		t.Fatalf("speedup = %g", got)
	}
	if got := Speedup(0, 8); got != 8 {
		t.Fatalf("embarrassingly parallel speedup = %g", got)
	}
	if got := Speedup(1, 64); got != 1 {
		t.Fatalf("fully serial speedup = %g", got)
	}
	if got := Speedup(0.5, 0); got != 1 {
		t.Fatalf("p clamped to 1: %g", got)
	}
}

func TestGustafsonVsAmdahl(t *testing.T) {
	// Gustafson's scaled speedup always dominates Amdahl's for p > 1.
	for _, f := range []float64{0.05, 0.2, 0.5} {
		for _, p := range []int{2, 16, 256} {
			if Gustafson(f, p) < Speedup(f, p) {
				t.Fatalf("f=%g p=%d: Gustafson %g < Amdahl %g",
					f, p, Gustafson(f, p), Speedup(f, p))
			}
		}
	}
	if got := Gustafson(0.1, 10); math.Abs(got-(10-0.9)) > 1e-12 {
		t.Fatalf("gustafson = %g", got)
	}
}

func TestKarpFlattInvertsAmdahl(t *testing.T) {
	// The Karp–Flatt metric of an exactly-Amdahl speedup recovers f.
	for _, f := range []float64{0.01, 0.1, 0.3} {
		for _, p := range []int{2, 8, 64} {
			s := Speedup(f, p)
			got, err := KarpFlatt(s, p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-f) > 1e-9 {
				t.Fatalf("f=%g p=%d: karp-flatt = %g", f, p, got)
			}
		}
	}
}

func TestKarpFlattRejectsBadInput(t *testing.T) {
	if _, err := KarpFlatt(2, 1); err == nil {
		t.Fatal("p=1 should fail")
	}
	if _, err := KarpFlatt(0, 4); err == nil {
		t.Fatal("zero speedup should fail")
	}
	if _, err := KarpFlatt(9, 4); err == nil {
		t.Fatal("superlinear speedup should fail")
	}
}

func TestEfficiency(t *testing.T) {
	if got := Efficiency(6, 8); got != 0.75 {
		t.Fatalf("efficiency = %g", got)
	}
}

func TestFitSerialFraction(t *testing.T) {
	ps := []int{2, 4, 8, 16}
	var speedups []float64
	for _, p := range ps {
		speedups = append(speedups, Speedup(0.2, p))
	}
	f, growing, err := FitSerialFraction(ps, speedups)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.2) > 1e-9 {
		t.Fatalf("fitted f = %g", f)
	}
	if growing {
		t.Fatal("pure Amdahl data should not show growing fraction")
	}
	// Now inject growing overhead: serial fraction 0.1 + overhead ~ p.
	var noisy []float64
	for _, p := range ps {
		eff := 0.05 * float64(p) / 16
		noisy = append(noisy, Speedup(0.1+eff, p))
	}
	_, growing, err = FitSerialFraction(ps, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if !growing {
		t.Fatal("overhead-dominated data should show growing fraction")
	}
	if _, _, err := FitSerialFraction(nil, nil); err == nil {
		t.Fatal("empty fit should fail")
	}
	if _, _, err := FitSerialFraction([]int{2}, []float64{3}); err == nil {
		t.Fatal("invalid observation should propagate error")
	}
}

// Property: Amdahl speedup is monotone in p and bounded by both p and 1/f.
func TestSpeedupBoundsProperty(t *testing.T) {
	f := func(fRaw uint8, pRaw uint8) bool {
		frac := float64(fRaw) / 256.0
		p := int(pRaw)%128 + 1
		s := Speedup(frac, p)
		if s > float64(p)+1e-9 {
			return false
		}
		if frac > 0 && s > 1/frac+1e-9 {
			return false
		}
		return Speedup(frac, p+1)+1e-12 >= s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
