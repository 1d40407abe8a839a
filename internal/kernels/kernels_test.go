package kernels

import (
	"math"
	"math/cmplx"
	"sort"
	"testing"
	"testing/quick"

	"tenways/internal/machine"
	"tenways/internal/mem"
	"tenways/internal/sched"
	"tenways/internal/workload"
)

func randMat(seed uint64, n int) []float64 {
	rng := workload.NewRand(seed)
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.Float64()*2 - 1
	}
	return m
}

func matsEqual(t *testing.T, name string, a, b []float64, tol float64) {
	t.Helper()
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			t.Fatalf("%s: element %d differs: %g vs %g", name, i, a[i], b[i])
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	n := 33 // odd, exercises ragged blocks
	a := randMat(1, n)
	b := randMat(2, n)
	ref := make([]float64, n*n)
	MatMulNaive(ref, a, b, n)

	for _, block := range []int{1, 4, 8, 16, 33, 64} {
		c := make([]float64, n*n)
		MatMulBlocked(c, a, b, n, block)
		matsEqual(t, "blocked", ref, c, 1e-9)
	}
}

func TestMatMulIdentity(t *testing.T) {
	n := 8
	a := randMat(3, n)
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	c := make([]float64, n*n)
	MatMulBlocked(c, a, id, n, 4)
	matsEqual(t, "A*I", a, c, 1e-12)
}

func TestMatMulFlops(t *testing.T) {
	if MatMulFlops(10) != 2000 {
		t.Fatalf("flops = %g", MatMulFlops(10))
	}
}

func TestMatMulTracedBlockingReducesTraffic(t *testing.T) {
	n := 48
	spec := machine.Laptop2009()
	// Shrink caches so n=48 (3 × 18 KiB matrices) exceeds them.
	spec.Levels = []machine.LevelSpec{
		{Name: "L1", CapacityBytes: 4 << 10, LineBytes: 64, Assoc: 4, LatencyCycles: 4, PJPerByte: 0.6},
		{Name: "L2", CapacityBytes: 16 << 10, LineBytes: 64, Assoc: 8, LatencyCycles: 12, PJPerByte: 2, Shared: true},
	}
	run := func(block int) int64 {
		h, err := mem.NewHierarchy(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		MatMulTraced(h, n, block)
		return h.Stats().DRAMBytes
	}
	naive := run(n)
	blocked := run(8)
	if blocked >= naive {
		t.Fatalf("blocked traffic %d should be below naive %d", blocked, naive)
	}
	if float64(naive)/float64(blocked) < 2 {
		t.Fatalf("blocking should cut traffic at least 2x, got %.2fx",
			float64(naive)/float64(blocked))
	}
}

func TestCommAvoidingModelShapes(t *testing.T) {
	p := 64
	base := CommAvoidingMatMul{N: 4096, P: p, C: 1}
	// Volume falls like 1/sqrt(c).
	for _, c := range []int{2, 4} {
		m := CommAvoidingMatMul{N: 4096, P: p, C: c}
		wantRatio := math.Sqrt(float64(c))
		gotRatio := base.WordsPerProc() / m.WordsPerProc()
		if math.Abs(gotRatio-wantRatio) > 1e-9 {
			t.Fatalf("c=%d: volume ratio %g, want %g", c, gotRatio, wantRatio)
		}
		if m.MemoryPerProcWords() != float64(c)*base.MemoryPerProcWords() {
			t.Fatalf("c=%d: memory not c×", c)
		}
	}
	if MaxReplication(64) != 4 {
		t.Fatalf("MaxReplication(64) = %d", MaxReplication(64))
	}
	if MaxReplication(1) != 1 {
		t.Fatalf("MaxReplication(1) = %d", MaxReplication(1))
	}
}

func TestHaloModel(t *testing.T) {
	h := HaloModel{N: 1024, P: 16}
	if h.HaloWords() != 2048 {
		t.Fatalf("halo words = %d", h.HaloWords())
	}
	if h.WastefulWords() <= h.HaloWords() {
		t.Fatal("wasteful exchange should exceed halo exchange")
	}
	if (HaloModel{N: 64, P: 1}).HaloWords() != 0 {
		t.Fatal("single rank needs no halo")
	}
	if h.RowsPerRank() != 64 {
		t.Fatalf("rows per rank = %d", h.RowsPerRank())
	}
}

func TestStreamKernels(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	c := make([]float64, 3)
	Triad(c, a, b, 2)
	if c[0] != 9 || c[2] != 15 {
		t.Fatalf("triad = %v", c)
	}
}

func TestOpCountsPositive(t *testing.T) {
	if TriadFlops(10) != 20 || TriadBytes(10) != 240 {
		t.Fatal("triad counts")
	}
	if DotFlops(8) != 16 || DotBytes(8) != 128 {
		t.Fatal("dot counts")
	}
	if SpMVFlops(100) != 200 || SpMVBytes(100) != 1200 {
		t.Fatal("spmv counts")
	}
	if Jacobi2DFlops(10) != 400 {
		t.Fatal("jacobi flops")
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := workload.NewRand(8)
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	want := DFTNaive(x)
	got := append([]complex128(nil), x...)
	if err := FFT(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if cmplx.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatalf("bin %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	if err := FFT(make([]complex128, 6)); err == nil {
		t.Fatal("expected error")
	}
	if err := FFT(nil); err == nil {
		t.Fatal("expected error on empty")
	}
}

func TestFFTBytesBlockedBelowNaive(t *testing.T) {
	naive, blocked := FFTBytes(1<<20, 3<<20)
	if blocked >= naive {
		t.Fatalf("blocked %g should be below naive %g", blocked, naive)
	}
}

func TestNBodyIntensityHigh(t *testing.T) {
	if NBodyIntensity(1024) < 100 {
		t.Fatalf("n-body intensity should be high: %g", NBodyIntensity(1024))
	}
}

func TestSampleSortSorts(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 5000} {
		for _, workers := range []int{1, 4} {
			rng := workload.NewRand(uint64(n + workers))
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Float64()*100 - 50
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			SampleSort(sched.NewPool(workers, nil), xs, 1)
			for i := range want {
				if xs[i] != want[i] {
					t.Fatalf("n=%d workers=%d: mismatch at %d", n, workers, i)
				}
			}
		}
	}
}

func TestSampleSortProperty(t *testing.T) {
	f := func(vals []float64, workersRaw uint8) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		workers := int(workersRaw)%6 + 1
		want := append([]float64(nil), clean...)
		sort.Float64s(want)
		SampleSort(sched.NewPool(workers, nil), clean, 7)
		for i := range want {
			if clean[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSCorrectOnKnownGraph(t *testing.T) {
	// 0 -> 1 -> 2, 0 -> 3; 4 isolated
	g := &workload.Graph{N: 5, Adj: [][]int{{1, 3}, {2}, {}, {}, {}}}
	want := []int{0, 1, 2, 1, -1}
	got := BFS(g, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BFS = %v, want %v", got, want)
		}
	}
}

func TestSortFlopsApprox(t *testing.T) {
	if SortFlopsApprox(1) != 0 {
		t.Fatal("n=1 should be 0")
	}
	if SortFlopsApprox(1024) != 1024*10 {
		t.Fatalf("got %g", SortFlopsApprox(1024))
	}
}
