package collective

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/pgas"
	"tenways/internal/trace"
)

func spec() *machine.Spec { return machine.Petascale2009() }

// runWorld runs body on n ranks and returns the makespan.
func runWorld(t *testing.T, n int, body func(c *Comm)) float64 {
	t.Helper()
	w := pgas.NewWorld(n, spec(), nil, nil)
	end, err := w.Run(func(r *pgas.Rank) { body(New(r)) })
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestBarriersComplete(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 16} {
		for name, bar := range map[string]func(*Comm){
			"central":       (*Comm).BarrierCentral,
			"dissemination": (*Comm).BarrierDissemination,
			"tree":          (*Comm).BarrierTree,
		} {
			end := runWorld(t, n, func(c *Comm) {
				bar(c)
				bar(c) // repeated use must not interfere
			})
			if n > 1 && end <= 0 {
				t.Errorf("%s barrier on %d ranks took no time", name, n)
			}
		}
	}
}

func TestBarrierOrderingGuarantee(t *testing.T) {
	// No rank may exit the barrier before every rank has entered it.
	for name, bar := range map[string]func(*Comm){
		"central":       (*Comm).BarrierCentral,
		"dissemination": (*Comm).BarrierDissemination,
		"tree":          (*Comm).BarrierTree,
	} {
		n := 8
		enter := make([]float64, n)
		exit := make([]float64, n)
		runWorld(t, n, func(c *Comm) {
			// Stagger arrivals.
			c.Rank().Lapse(float64(c.Rank().ID()) * 1e-5)
			enter[c.Rank().ID()] = c.Rank().Now()
			bar(c)
			exit[c.Rank().ID()] = c.Rank().Now()
		})
		maxEnter := 0.0
		for _, e := range enter {
			if e > maxEnter {
				maxEnter = e
			}
		}
		for i, x := range exit {
			if x < maxEnter {
				t.Errorf("%s: rank %d exited at %g before last entry %g", name, i, x, maxEnter)
			}
		}
	}
}

func TestBarrierScalingShapes(t *testing.T) {
	// Central barrier is O(P) at the root; tree/dissemination are O(log P).
	central := map[int]float64{}
	dissem := map[int]float64{}
	for _, n := range []int{8, 64} {
		central[n] = runWorld(t, n, (*Comm).BarrierCentral)
		dissem[n] = runWorld(t, n, (*Comm).BarrierDissemination)
	}
	growthCentral := central[64] / central[8]
	growthDissem := dissem[64] / dissem[8]
	if growthCentral <= growthDissem {
		t.Errorf("central should grow faster: central %gx, dissemination %gx",
			growthCentral, growthDissem)
	}
	if dissem[64] >= central[64] {
		t.Errorf("dissemination (%g) should beat central (%g) at P=64",
			dissem[64], central[64])
	}
}

func TestBroadcastVariantsDeliver(t *testing.T) {
	want := []float64{3, 1, 4, 1, 5}
	for name, bc := range map[string]func(*Comm, []float64) []float64{
		"flat": (*Comm).BroadcastFlat,
		"tree": (*Comm).BroadcastTree,
	} {
		for _, n := range []int{1, 2, 5, 8} {
			got := make([][]float64, n)
			runWorld(t, n, func(c *Comm) {
				var x []float64
				if c.Rank().ID() == 0 {
					x = want
				} else {
					x = make([]float64, len(want))
				}
				got[c.Rank().ID()] = bc(c, x)
			})
			for rank, g := range got {
				for i := range want {
					if g[i] != want[i] {
						t.Fatalf("%s n=%d rank %d: got %v", name, n, rank, g)
					}
				}
			}
		}
	}
}

func TestBroadcastTreeBeatsFlatAtScale(t *testing.T) {
	n := 64
	x := make([]float64, 256)
	flat := runWorld(t, n, func(c *Comm) { c.BroadcastFlat(x) })
	tree := runWorld(t, n, func(c *Comm) { c.BroadcastTree(x) })
	if tree >= flat {
		t.Errorf("tree bcast (%g) should beat flat (%g) at P=%d", tree, flat, n)
	}
}

func allreduceRef(n, m int) []float64 {
	// Reference: rank r contributes x[i] = r + i.
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		for r := 0; r < n; r++ {
			out[i] += float64(r + i)
		}
	}
	return out
}

func rankVector(r, m int) []float64 {
	x := make([]float64, m)
	for i := range x {
		x[i] = float64(r + i)
	}
	return x
}

func TestAllreduceVariantsCorrect(t *testing.T) {
	const m = 17
	for _, n := range []int{1, 2, 4, 8} {
		want := allreduceRef(n, m)
		check := func(name string, got [][]float64) {
			for rank, g := range got {
				if g == nil {
					t.Fatalf("%s n=%d rank %d: nil result", name, n, rank)
				}
				for i := range want {
					if math.Abs(g[i]-want[i]) > 1e-9 {
						t.Fatalf("%s n=%d rank %d elem %d: got %g want %g",
							name, n, rank, i, g[i], want[i])
					}
				}
			}
		}

		flat := make([][]float64, n)
		runWorld(t, n, func(c *Comm) {
			flat[c.Rank().ID()] = c.AllreduceFlat(rankVector(c.Rank().ID(), m), Sum)
		})
		check("flat", flat)

		rd := make([][]float64, n)
		runWorld(t, n, func(c *Comm) {
			out, err := c.AllreduceRecursiveDoubling(rankVector(c.Rank().ID(), m), Sum)
			if err != nil {
				t.Error(err)
			}
			rd[c.Rank().ID()] = out
		})
		check("recursive-doubling", rd)

		ring := make([][]float64, n)
		runWorld(t, n, func(c *Comm) {
			ring[c.Rank().ID()] = c.allreduceRing(m, rankVector(c.Rank().ID(), m), Sum)
		})
		check("ring", ring)
	}
}

func TestAllreduceRingOddRanks(t *testing.T) {
	const m = 10
	for _, n := range []int{3, 5, 7} {
		want := allreduceRef(n, m)
		got := make([][]float64, n)
		runWorld(t, n, func(c *Comm) {
			got[c.Rank().ID()] = c.allreduceRing(m, rankVector(c.Rank().ID(), m), Sum)
		})
		for rank := range got {
			for i := range want {
				if math.Abs(got[rank][i]-want[i]) > 1e-9 {
					t.Fatalf("n=%d rank %d: got %v want %v", n, rank, got[rank], want)
				}
			}
		}
	}
}

func TestRecursiveDoublingRejectsNonPow2(t *testing.T) {
	errs := make([]error, 3)
	runWorld(t, 3, func(c *Comm) {
		_, errs[c.Rank().ID()] = c.AllreduceRecursiveDoubling([]float64{1}, Sum)
	})
	for _, err := range errs {
		if err == nil {
			t.Fatal("expected error on 3 ranks")
		}
	}
}

func TestAllreduceMaxOp(t *testing.T) {
	n, m := 4, 3
	got := make([][]float64, n)
	runWorld(t, n, func(c *Comm) {
		out, err := c.AllreduceRecursiveDoubling(rankVector(c.Rank().ID(), m), Max)
		if err != nil {
			t.Error(err)
		}
		got[c.Rank().ID()] = out
	})
	for rank := range got {
		for i := 0; i < m; i++ {
			if got[rank][i] != float64(n-1+i) {
				t.Fatalf("rank %d: got %v", rank, got[rank])
			}
		}
	}
}

func TestAllreduceScalingShapes(t *testing.T) {
	// Small vectors: recursive doubling (log P latency) beats flat (P
	// latency at root) at scale.
	m := 8
	n := 64
	x := make([]float64, m)
	flat := runWorld(t, n, func(c *Comm) { c.AllreduceFlat(x, Sum) })
	rd := runWorld(t, n, func(c *Comm) {
		if _, err := c.AllreduceRecursiveDoubling(x, Sum); err != nil {
			t.Error(err)
		}
	})
	if rd >= flat {
		t.Errorf("recursive doubling (%g) should beat flat (%g) for small vectors", rd, flat)
	}

	// Large vectors: ring moves 2m(n−1)/n per rank versus rd's m·log2(n),
	// so ring wins on bandwidth.
	big := make([]float64, 1<<16)
	rdBig := runWorld(t, n, func(c *Comm) {
		if _, err := c.AllreduceRecursiveDoubling(big, Sum); err != nil {
			t.Error(err)
		}
	})
	ringBig := runWorld(t, n, func(c *Comm) { c.allreduceRing(len(big), big, Sum) })
	if ringBig >= rdBig {
		t.Errorf("ring (%g) should beat recursive doubling (%g) for large vectors", ringBig, rdBig)
	}
}

func TestRepeatedCollectivesIndependent(t *testing.T) {
	// Two identical allreduces must each produce the correct result.
	n, m := 8, 5
	want := allreduceRef(n, m)
	got1 := make([][]float64, n)
	got2 := make([][]float64, n)
	runWorld(t, n, func(c *Comm) {
		id := c.Rank().ID()
		got1[id] = c.allreduceRing(m, rankVector(id, m), Sum)
		got2[id] = c.allreduceRing(m, rankVector(id, m), Sum)
	})
	for rank := 0; rank < n; rank++ {
		for i := range want {
			if math.Abs(got1[rank][i]-want[i]) > 1e-9 || math.Abs(got2[rank][i]-want[i]) > 1e-9 {
				t.Fatalf("rank %d: %v / %v want %v", rank, got1[rank], got2[rank], want)
			}
		}
	}
}

func TestChunkRange(t *testing.T) {
	// Chunks must tile [0,m) exactly.
	for _, tc := range []struct{ m, n int }{{10, 3}, {7, 7}, {5, 8}, {16, 4}, {1, 1}} {
		prev := 0
		for i := 0; i < tc.n; i++ {
			lo, hi := chunkRange(tc.m, tc.n, i)
			if lo != prev {
				t.Fatalf("m=%d n=%d chunk %d: lo=%d want %d", tc.m, tc.n, i, lo, prev)
			}
			if hi < lo {
				t.Fatalf("m=%d n=%d chunk %d: hi<lo", tc.m, tc.n, i)
			}
			prev = hi
		}
		if prev != tc.m {
			t.Fatalf("m=%d n=%d: chunks cover %d", tc.m, tc.n, prev)
		}
	}
}

func TestChunkRangeProperty(t *testing.T) {
	f := func(mRaw, nRaw uint8) bool {
		m := int(mRaw)
		n := int(nRaw)%16 + 1
		prev := 0
		for i := 0; i < n; i++ {
			lo, hi := chunkRange(m, n, i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialTreeStructure(t *testing.T) {
	// Every non-root has exactly one parent, and the children relation is
	// the inverse of the parent relation.
	n := 23
	for v := 1; v < n; v++ {
		p := parent(v)
		if p < 0 || p >= v {
			t.Fatalf("parent(%d) = %d", v, p)
		}
		found := false
		for _, ch := range children(p, n) {
			if ch == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("%d not among children(%d,%d) = %v", v, p, n, children(p, n))
		}
	}
	// Total children = n-1.
	total := 0
	for v := 0; v < n; v++ {
		total += len(children(v, n))
	}
	if total != n-1 {
		t.Fatalf("total children = %d, want %d", total, n-1)
	}
}

func TestCollectivesSingleRank(t *testing.T) {
	// Every collective must degrade gracefully to a no-op-ish single-rank
	// form.
	runWorld(t, 1, func(c *Comm) {
		c.BarrierCentral()
		c.BarrierDissemination()
		c.BarrierTree()
		if got := c.BroadcastFlat([]float64{7}); got[0] != 7 {
			t.Errorf("bcast flat: %v", got)
		}
		if got := c.BroadcastTree([]float64{7}); got[0] != 7 {
			t.Errorf("bcast tree: %v", got)
		}
		if got := c.AllreduceFlat([]float64{7}, Sum); got[0] != 7 {
			t.Errorf("allreduce flat: %v", got)
		}
		if got, err := c.AllreduceRecursiveDoubling([]float64{7}, Sum); err != nil || got[0] != 7 {
			t.Errorf("allreduce rd: %v %v", got, err)
		}
		if got := c.allreduceRing(1, []float64{7}, Sum); got[0] != 7 {
			t.Errorf("allreduce ring: %v", got)
		}
		if got := c.AlltoallPersonalized([][]float64{{7}}, 0); got[0][0] != 7 {
			t.Errorf("alltoall: %v", got)
		}
	})
}

func TestAlltoallWrongBlockCountPanics(t *testing.T) {
	w := pgas.NewWorld(2, spec(), nil, nil)
	_, err := w.Run(func(r *pgas.Rank) {
		New(r).AlltoallPersonalized([][]float64{{1}}, 0) // needs 2 blocks
	})
	if err == nil {
		t.Fatal("expected error from panic")
	}
}

func TestSplitPhaseBarrierComplete(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 16} {
		end := runWorld(t, n, func(c *Comm) {
			for e := 0; e < 3; e++ { // repeated epochs must not interfere
				c.BarrierBegin()
				c.Rank().Lapse(1e-5)
				c.BarrierEnd()
			}
		})
		if end <= 0 {
			t.Errorf("split-phase barrier on %d ranks took no time", n)
		}
	}
}

func TestSplitPhaseBarrierOrderingGuarantee(t *testing.T) {
	// No rank may pass BarrierEnd before every rank has called BarrierBegin.
	n := 8
	enter := make([]float64, n)
	exit := make([]float64, n)
	runWorld(t, n, func(c *Comm) {
		c.Rank().Lapse(float64(c.Rank().ID()) * 1e-5) // stagger arrivals
		enter[c.Rank().ID()] = c.Rank().Now()
		c.BarrierBegin()
		c.BarrierEnd()
		exit[c.Rank().ID()] = c.Rank().Now()
	})
	maxEnter := 0.0
	for _, e := range enter {
		if e > maxEnter {
			maxEnter = e
		}
	}
	for i, x := range exit {
		if x < maxEnter {
			t.Errorf("rank %d passed BarrierEnd at %g before last BarrierBegin at %g", i, x, maxEnter)
		}
	}
}

func TestSplitPhaseBarrierOverlapsLeafCompute(t *testing.T) {
	// A slow leaf's compute placed between Begin and End overlaps the
	// barrier: the run must be faster than with the blocking tree barrier
	// around the same compute.
	const n, work, slow = 8, 1e-4, 1e-3
	leaf := n - 1 // rank 7 is a leaf of the 8-rank binomial tree
	body := func(split bool) float64 {
		return runWorld(t, n, func(c *Comm) {
			d := work
			if c.Rank().ID() == leaf {
				d = slow
			}
			for s := 0; s < 4; s++ {
				if split {
					c.BarrierBegin()
					c.Rank().Lapse(d)
					c.BarrierEnd()
				} else {
					c.Rank().Lapse(d)
					c.BarrierTree()
				}
			}
		})
	}
	blocking := body(false)
	overlapped := body(true)
	if overlapped >= blocking {
		t.Errorf("split-phase (%g) not faster than blocking (%g)", overlapped, blocking)
	}
}

// allreduceOutcome is everything a timed allreduce reports: the modeled
// time, the world's message stats, energy, wait attribution, the
// collective counters and the dispatch error.
type allreduceOutcome struct {
	makespan float64
	finish   []float64
	stats    pgas.Stats
	joules   float64
	bd       trace.Breakdown
	ops      int64
	bytes    int64
	err      string
}

// runAllreduce runs one allreduce of alg on p ranks: the dispatch on a
// words-long zero vector, or AllreduceSize when sizeOnly is set.
func runAllreduce(t *testing.T, alg string, p, words int, sizeOnly bool) allreduceOutcome {
	t.Helper()
	w := pgas.NewWorld(p, spec(), nil, nil)
	reg := obs.NewRegistry()
	w.SetObs(reg)
	finish := make([]float64, p)
	errs := make([]error, p)
	makespan, err := w.Run(func(r *pgas.Rank) {
		c := New(r)
		if sizeOnly {
			errs[r.ID()] = c.AllreduceSize(alg, words)
		} else {
			_, errs[r.ID()] = c.allreduce(alg, words, make([]float64, words), Sum)
		}
		finish[r.ID()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	out := allreduceOutcome{
		makespan: makespan,
		finish:   finish,
		stats:    w.Stats(),
		joules:   w.Meter().Total(),
		bd:       w.Breakdown(makespan),
		ops:      reg.Counter("collective.ops").Value(),
		bytes:    reg.Counter("collective.bytes").Value(),
	}
	for _, e := range errs {
		if e != nil && out.err == "" {
			out.err = e.Error()
		}
	}
	return out
}

// TestAllreduceSizeMatchesAllreduce: the size-only allreduce runs the
// data-carrying schedule exactly, so every figure a timing experiment reads
// is identical between the two, at rank counts that leave chunks empty,
// uneven or not a power of two.
func TestAllreduceSizeMatchesAllreduce(t *testing.T) {
	for _, alg := range AllreduceAlgorithms() {
		for _, p := range []int{1, 2, 3, 4, 16, 64} {
			for _, words := range []int{0, 1, 7, 1000, 16384} {
				data := runAllreduce(t, alg, p, words, false)
				size := runAllreduce(t, alg, p, words, true)
				if !reflect.DeepEqual(data, size) {
					t.Fatalf("%s P=%d words=%d: AllreduceSize differs from the data-carrying run:\n data %+v\n size %+v",
						alg, p, words, data, size)
				}
				if wantErr := alg == "rdouble" && p == 3; (data.err != "") != wantErr {
					t.Fatalf("%s P=%d: error %q", alg, p, data.err)
				}
			}
		}
	}
}

// TestAllreduceSizeErrors: bad arguments fail like the data-carrying dispatch's.
func TestAllreduceSizeErrors(t *testing.T) {
	runWorld(t, 2, func(c *Comm) {
		_, want := c.allreduce("tree", 1, []float64{1}, Sum)
		if got := c.AllreduceSize("tree", 1); got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("unknown algorithm: got %v, want %v", got, want)
		}
		if err := c.AllreduceSize("ring", -1); err == nil {
			t.Error("negative size accepted")
		}
	})
}

// TestAllreduceSizeCarriesNoPayload: a size-only allreduce copies and sums
// nothing, so a 16384-fold larger vector allocates no more host memory.
// Carrying a payload would cost at least one 128 KiB copy per message.
func TestAllreduceSizeCarriesNoPayload(t *testing.T) {
	for _, alg := range AllreduceAlgorithms() {
		alloc := func(words int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			runWorld(t, 16, func(c *Comm) {
				if err := c.AllreduceSize(alg, words); err != nil {
					t.Error(err)
				}
			})
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		alloc(1) // warm up lazily built state
		small, large := alloc(1), alloc(16384)
		const slack = 64 << 10
		if large > small+slack {
			t.Errorf("%s: AllreduceSize allocated %d B at 1 word but %d B at 16384 words (slack %d B)",
				alg, small, large, slack)
		}
	}
}
