package energy

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestMeterAddAndTotal(t *testing.T) {
	m := NewMeter()
	m.Add(Flops, 1.5)
	m.Add(DRAM, 2.5)
	m.Add(Flops, 0.5)
	if got := m.Total(); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("total = %g", got)
	}
	b := m.Breakdown()
	if got := b.Joules(Flops); got != 2.0 {
		t.Fatalf("flops = %g", got)
	}
	if got := b.Joules("missing"); got != 0 {
		t.Fatalf("missing component = %g", got)
	}
}

// TestTotalIsOrderIndependent: components whose sum depends on the order
// of addition still give one total, every call, equal to Breakdown's.
func TestTotalIsOrderIndependent(t *testing.T) {
	m := NewMeter()
	m.Add("a", 1e16)
	m.Add("b", 1)
	m.Add("c", 1)
	m.Add("d", 1)
	want := m.Breakdown().TotalJoules
	for i := 0; i < 200; i++ {
		if got := m.Total(); got != want {
			t.Fatalf("call %d: total %v, want %v", i, got, want)
		}
	}
}

func TestMeterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative charge")
		}
	}()
	NewMeter().Add(Flops, -1)
}

func TestBreakdownSortedDescending(t *testing.T) {
	m := NewMeter()
	m.Add("a", 1)
	m.Add("b", 3)
	m.Add("c", 2)
	b := m.Breakdown()
	if b.Components[0].Name != "b" || b.Components[1].Name != "c" || b.Components[2].Name != "a" {
		t.Fatalf("order = %+v", b.Components)
	}
}

func TestBreakdownTieBrokenByName(t *testing.T) {
	m := NewMeter()
	m.Add("z", 1)
	m.Add("a", 1)
	b := m.Breakdown()
	if b.Components[0].Name != "a" {
		t.Fatalf("tie order = %+v", b.Components)
	}
}

func TestFraction(t *testing.T) {
	m := NewMeter()
	m.Add(DRAM, 3)
	m.Add(Flops, 1)
	b := m.Breakdown()
	if got := b.Fraction(DRAM); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("fraction = %g", got)
	}
	var empty Breakdown
	if empty.Fraction(DRAM) != 0 {
		t.Fatal("empty fraction should be 0")
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Add(Flops, 0.001)
			}
		}()
	}
	wg.Wait()
	if got := m.Total(); math.Abs(got-8) > 1e-6 {
		t.Fatalf("concurrent total = %g", got)
	}
}

func TestString(t *testing.T) {
	m := NewMeter()
	m.Add(DRAM, 2)
	s := m.Breakdown().String()
	if !strings.Contains(s, "dram=2") || !strings.Contains(s, "2J") {
		t.Fatalf("string = %q", s)
	}
}

func TestSciencePerJoule(t *testing.T) {
	if got := SciencePerJoule(100, 4); got != 25 {
		t.Fatalf("got %g", got)
	}
	if got := SciencePerJoule(100, 0); got != 0 {
		t.Fatalf("zero joules: got %g", got)
	}
}

// Property: total equals sum of components, and merging meters is additive.
func TestMeterAdditivityProperty(t *testing.T) {
	f := func(charges []float64) bool {
		m := NewMeter()
		sum := 0.0
		for i, c := range charges {
			c = math.Abs(c)
			if math.IsNaN(c) || math.IsInf(c, 0) || c > 1e12 {
				continue
			}
			name := []string{Flops, DRAM, Network}[i%3]
			m.Add(name, c)
			sum += c
		}
		b := m.Breakdown()
		compSum := 0.0
		for _, c := range b.Components {
			compSum += c.Joules
		}
		return math.Abs(b.TotalJoules-sum) < 1e-6*(1+sum) &&
			math.Abs(compSum-sum) < 1e-6*(1+sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEDP(t *testing.T) {
	if got := EDP(10, 2); got != 20 {
		t.Fatalf("EDP = %g", got)
	}
	// EDP penalises slow-but-frugal the same as fast-but-hungry.
	if EDP(5, 4) != EDP(10, 2) {
		t.Fatal("EDP symmetry")
	}
}
