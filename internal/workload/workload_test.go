package workload

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds too correlated: %d collisions", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRand(13)
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp()
	}
	if mean := sum / float64(n); math.Abs(mean-1) > 0.05 {
		t.Fatalf("exp mean = %g", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfMeanAndSkew(t *testing.T) {
	d := NewTaskDist(5)
	costs := d.Zipf(1000, 1.2, 10)
	sum := 0.0
	for _, c := range costs {
		if c <= 0 {
			t.Fatal("non-positive cost")
		}
		sum += c
	}
	if mean := sum / 1000; math.Abs(mean-10) > 1e-9 {
		t.Fatalf("mean = %g, want 10", mean)
	}
	// With the mean at 10, max/mean >= 5 means a task of at least 50.
	if slices.Max(costs) < 50 {
		t.Fatalf("zipf s=1.2 should be heavily skewed, max = %g", slices.Max(costs))
	}
}

func TestZipfSkewIncreasesWithS(t *testing.T) {
	d := NewTaskDist(5)
	// The mean is 1, so the largest cost is the max/mean skew.
	s0 := slices.Max(d.Zipf(500, 0, 1))
	s1 := slices.Max(d.Zipf(500, 0.8, 1))
	s2 := slices.Max(d.Zipf(500, 1.6, 1))
	if !(s0 <= s1 && s1 < s2) {
		t.Fatalf("skew not increasing: %g %g %g", s0, s1, s2)
	}
}

func TestZipfSortedDescending(t *testing.T) {
	d := NewTaskDist(9)
	costs := d.ZipfSorted(100, 1, 5)
	for i := 1; i < len(costs); i++ {
		if costs[i] > costs[i-1] {
			t.Fatal("not descending")
		}
	}
}

func TestRMATProperties(t *testing.T) {
	g := RMAT(17, 8, 8) // 256 vertices, ~2048 edges
	if g.N != 256 {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() != 8*256 {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), 8*256)
	}
	// Scale-free shape: max out-degree far above mean.
	max := 0
	for u, a := range g.Adj {
		for i := 1; i < len(a); i++ {
			if a[i] == a[i-1] {
				t.Fatalf("duplicate edge at %d", u)
			}
		}
		for _, v := range a {
			if v == u {
				t.Fatalf("self loop at %d", u)
			}
			if v < 0 || v >= g.N {
				t.Fatalf("edge out of range")
			}
		}
		if len(a) > max {
			max = len(a)
		}
	}
	if max < 3*8 {
		t.Fatalf("RMAT max degree %d not skewed vs mean 8", max)
	}
}

func TestShuffleConserves(t *testing.T) {
	r := NewRand(2)
	xs := []float64{1, 2, 3, 4, 5}
	sum := 15.0
	r.Shuffle(xs)
	got := 0.0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatal("shuffle lost elements")
	}
}

func TestRMATDeterministic(t *testing.T) {
	// Byte-identical across invocations: the generator must not leak map
	// iteration order or any other per-process nondeterminism into the
	// graph, because distributed campaigns partition it by rank and replay
	// it across runs.
	render := func(g *Graph) string {
		var b strings.Builder
		fmt.Fprintf(&b, "n=%d e=%d\n", g.N, g.NumEdges())
		for u, adj := range g.Adj {
			fmt.Fprintf(&b, "%d:%v\n", u, adj)
		}
		return b.String()
	}
	a := render(RMAT(2009, 8, 8))
	bb := render(RMAT(2009, 8, 8))
	if a != bb {
		t.Fatal("RMAT(2009, 8, 8) differs between invocations")
	}
	if c := render(RMAT(2010, 8, 8)); c == a {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	g := RMAT(7, 9, 8)
	max, sum := 0, 0
	for _, adj := range g.Adj {
		if len(adj) > max {
			max = len(adj)
		}
		sum += len(adj)
	}
	mean := float64(sum) / float64(g.N)
	if float64(max) < 4*mean {
		t.Fatalf("R-MAT should be skewed: max degree %d vs mean %.1f", max, mean)
	}
}
