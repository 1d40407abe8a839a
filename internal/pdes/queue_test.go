package pdes

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// mix64 is splitmix64 — the tests' only randomness source, fully
// deterministic from its seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestLadderMatchesHeapOnRandomStream drives both disciplines through the
// same interleaved push/pop stream — pushes never travel backwards past the
// last pop, the engine's usage pattern — and demands identical pop
// sequences. The width sweep forces every ladder path: tiny widths respread
// constantly, huge widths funnel everything through one bucket. The streams
// aim at the slab paths: monotone pushes fill buckets already in order (the
// sorted-bucket skip) that merge into a spent run (the swap merge); skewed
// pushes pile onto one instant, so its bucket outgrows every spare slab
// (trade-up, then allocation) while the rest stay small.
func TestLadderMatchesHeapOnRandomStream(t *testing.T) {
	// Each stream maps step i, its hash g, and the last popped time to a
	// push. A coarse 16-bit time grid makes exact ties exercise the
	// (Time, Src, Seq) tie-break.
	random := func(i int, g uint64, now float64) Event {
		dt := float64(g%(1<<16)) / float64(1<<16) * 10e-6
		return Event{Time: now + dt, Src: int32(g % 64), Seq: uint32(i)}
	}
	streams := []struct {
		name string
		next func(i int, g uint64, now float64) Event
	}{
		{"random", random},
		{"monotone", func(i int, g uint64, now float64) Event {
			return Event{Time: float64(i) * 1e-9, Src: int32(g % 64), Seq: uint32(i)}
		}},
		{"skewed", func(i int, g uint64, now float64) Event {
			if g%8 == 0 {
				return random(i, g>>3, now)
			}
			hot := (math.Floor(now/5e-6) + 2) * 5e-6
			return Event{Time: hot, Src: int32(g % 64), Seq: uint32(i)}
		}},
	}
	for _, s := range streams {
		for _, width := range []float64{1e-8, 1e-7, 1e-6, 5e-6, 1e-3} {
			h := &binHeap{}
			l := newLadder(width)
			g := uint64(0xfeed)
			now := 0.0
			live := 0
			for i := 0; i < 20000; i++ {
				g = mix64(g)
				if live > 0 && g%3 == 0 {
					th, okh := h.peek()
					tl, okl := l.peek()
					if okh != okl || th != tl {
						t.Fatalf("%s width=%g step %d: peek (%g,%v) heap vs (%g,%v) ladder", s.name, width, i, th, okh, tl, okl)
					}
					evh, evl := h.pop(), l.pop()
					if evh != evl {
						t.Fatalf("%s width=%g step %d: pop %+v heap vs %+v ladder", s.name, width, i, evh, evl)
					}
					now = evh.Time
					live--
				} else {
					g = mix64(g)
					ev := s.next(i, g, now)
					h.push(ev)
					l.push(ev)
					live++
				}
				if h.len() != l.len() {
					t.Fatalf("%s width=%g step %d: len %d heap vs %d ladder", s.name, width, i, h.len(), l.len())
				}
			}
			for h.len() > 0 {
				evh, evl := h.pop(), l.pop()
				if evh != evl {
					t.Fatalf("%s width=%g drain: pop %+v heap vs %+v ladder", s.name, width, evh, evl)
				}
			}
			if l.len() != 0 {
				t.Fatalf("%s width=%g: ladder still holds %d events after drain", s.name, width, l.len())
			}
		}
	}
}

// randWorkload is a seeded event storm for the queue-equivalence property
// test: every decision — fan-out, destinations, delays, payloads — derives
// from a hash chain over the handled event's identity and the handling
// rank's running trace, never from shared state, so any two runs that
// handle each rank's events in the same order produce identical traces.
// Self events use sub-lookahead (even zero) delays to exercise the
// ladder's sorted-run insertion path; cross-rank events use delays in
// [lookahead, 3*lookahead).
type randWorkload struct {
	n       int
	seed    uint64
	look    float64
	horizon float64
	trace   []uint64 // per-rank order-sensitive chain, written only by the owner
}

func newRandWorkload(n int, seed uint64, look float64) *randWorkload {
	return &randWorkload{n: n, seed: seed, look: look, horizon: 40 * look, trace: make([]uint64, n)}
}

func (w *randWorkload) Ranks() int { return w.n }

func (w *randWorkload) Init(s Sched, rank int) {
	h := mix64(w.seed ^ uint64(rank)*0x9e3779b97f4a7c15)
	for i := uint64(0); i <= h%2; i++ {
		h = mix64(h)
		t := float64(h%(1<<20)) / float64(1<<20) * 8 * w.look
		s.At(rank, t, 1, int32(i), float64(h%97))
	}
}

func (w *randWorkload) Handle(s Sched, ev Event) {
	r := int(ev.Dst)
	h := w.trace[r]
	h = mix64(h ^ math.Float64bits(ev.Time))
	h = mix64(h ^ uint64(uint32(ev.Src))<<32 ^ uint64(ev.Seq))
	h = mix64(h ^ uint64(uint32(ev.Kind))<<32 ^ uint64(uint32(ev.Step)))
	h = mix64(h ^ math.Float64bits(ev.Data))
	w.trace[r] = h
	if ev.Time >= w.horizon {
		return
	}
	g := mix64(h)
	for i := uint64(0); i < g%3; i++ {
		g = mix64(g)
		u := float64(g%(1<<20)) / float64(1<<20)
		if g&(1<<21) == 0 {
			s.At(r, ev.Time+u*0.7*w.look, 2, int32(i), float64(g%251))
		} else {
			g = mix64(g)
			dst := int(g % uint64(w.n))
			s.At(dst, ev.Time+w.look+u*2*w.look, 3, int32(i), float64(g%251))
		}
	}
}

// TestQueueEquivalenceProperty is the engine's safety net: seeded random
// workloads through every engine configuration — both queue disciplines,
// extreme bucket widths, both barriers, partition counts that do not
// divide the rank count — must produce byte-identical results and per-rank
// trace chains. One event skipped or reordered changes every subsequent
// hash of its rank's chain.
func TestQueueEquivalenceProperty(t *testing.T) {
	const n = 96
	const look = 2e-6
	configs := []Config{
		{Partitions: 1, Workers: 1, Queue: QueueHeap},
		{Partitions: 1, Workers: 1, Queue: QueueLadder},
		{Partitions: 7, Workers: 1, Queue: QueueHeap},
		{Partitions: 7, Workers: 3, Queue: QueueLadder},
		{Partitions: 16, Workers: 4, Queue: QueueLadder, BucketWidth: look / 64},  // constant respreads
		{Partitions: 16, Workers: 4, Queue: QueueLadder, BucketWidth: look * 1e4}, // one giant bucket
		{Partitions: 16, Workers: 4, Queue: QueueHeap, Barrier: BarrierChan},
		{Partitions: 16, Workers: 4, Queue: QueueLadder, Barrier: BarrierSense},
	}
	for _, seed := range []uint64{1, 0xabcdef, 77777} {
		base := newRandWorkload(n, seed, look)
		bres, err := Run(base, Config{Partitions: 1, Workers: 1, Queue: QueueHeap, Lookahead: look})
		if err != nil {
			t.Fatalf("seed %d baseline: %v", seed, err)
		}
		if bres.Events == 0 {
			t.Fatalf("seed %d: baseline produced no events", seed)
		}
		for ci, cfg := range configs {
			w := newRandWorkload(n, seed, look)
			cfg.Lookahead = look
			res, err := Run(w, cfg)
			if err != nil {
				t.Fatalf("seed %d config %d (%+v): %v", seed, ci, cfg, err)
			}
			if res.Events != bres.Events || res.VirtualTime != bres.VirtualTime {
				t.Errorf("seed %d config %d (queue=%v parts=%d): events %d / vt %g, baseline %d / %g",
					seed, ci, cfg.Queue, cfg.Partitions, res.Events, res.VirtualTime, bres.Events, bres.VirtualTime)
			}
			for r := 0; r < n; r++ {
				if w.trace[r] != base.trace[r] {
					t.Fatalf("seed %d config %d (queue=%v parts=%d workers=%d width=%g): rank %d trace %x, baseline %x",
						seed, ci, cfg.Queue, cfg.Partitions, cfg.Workers, cfg.BucketWidth, r, w.trace[r], base.trace[r])
				}
			}
		}
	}
}

// TestWindowLoopSteadyStateZeroAlloc is the slab-arena acceptance gate:
// once each ladder's spare list holds a slab for every bucket, run, and
// overflow that needs one, and the chunk free lists reach their high-water
// marks, the window loop must not allocate at all — across bucket merges
// (swapped or copied into the run), overflow respreads, slab trade-ups, and
// cross-partition chunk recycling.
func TestWindowLoopSteadyStateZeroAlloc(t *testing.T) {
	w := mustWave(t, 512, 400, 50e-6, 0, []int{1, 4}, []float64{2e-6, 2.5e-6})
	cfg := Config{Partitions: 4, Workers: 1, Lookahead: w.MinDelay()}
	e := newEngine(w, w.Ranks(), cfg.Partitions, cfg)
	if err := e.seed(); err != nil {
		t.Fatal(err)
	}
	gmin := e.initialMin()
	failed := false
	step := func(k int) {
		for i := 0; i < k && !failed && !math.IsInf(gmin, 1); i++ {
			gmin, failed = e.stepWindow(gmin)
		}
	}
	// Warm past the first overflow respreads (one every ~40 windows at the
	// default lookahead/4 bucket width) so every slab is at high water.
	step(120)
	if failed {
		t.Fatal(e.firstError())
	}
	if math.IsInf(gmin, 1) {
		t.Fatal("workload drained during warmup; increase steps")
	}
	if avg := testing.AllocsPerRun(10, func() { step(10) }); avg != 0 {
		t.Fatalf("steady-state window loop allocates: %g allocs per 10 windows, want 0", avg)
	}
	if failed {
		t.Fatal(e.firstError())
	}
}

// TestLadderMemoryWithinTwiceHeap gates the ladder's memory against the
// heap's on BenchmarkPDESIdleWave's configuration (2^14 ranks, 6 steps, 8
// partitions): the bytes one run allocates, workload construction included
// as in the benchmark's B/op, must stay within twice the heap's. A ladder
// whose slabs stay pinned to their bucket index allocates about 6x.
func TestLadderMemoryWithinTwiceHeap(t *testing.T) {
	alloc := func(q QueueKind) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := mustWave(t, 1<<14, 6, 50e-6, 400e-6, []int{1, 4}, []float64{2e-6, 2.5e-6})
		if _, err := Run(w, Config{Partitions: 8, Queue: q, Lookahead: w.MinDelay()}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	ladder, heap := alloc(QueueLadder), alloc(QueueHeap)
	t.Logf("bytes allocated per run: ladder %d, heap %d (%.2fx)", ladder, heap, float64(ladder)/float64(heap))
	if ladder > 2*heap {
		t.Errorf("ladder allocates %d bytes per run, more than twice the heap's %d", ladder, heap)
	}
}

// TestSenseBarrierProtocol drives the barrier directly: three windows with
// a min-reduce, a failure flag on the last, then shutdown.
func TestSenseBarrierProtocol(t *testing.T) {
	const nw = 4
	bar := newSenseBarrier(nw)
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for ep := uint32(1); ; ep++ {
				wend, ok := bar.await(ep)
				if !ok {
					return
				}
				bar.publish(wi, ep, wend+float64(wi), wi == 2 && ep == 3)
			}
		}(wi)
	}
	for ep := uint32(1); ep <= 3; ep++ {
		bar.issue(ep, float64(ep)*10)
		gmin, failed := bar.collect(ep)
		if want := float64(ep) * 10; gmin != want {
			t.Errorf("epoch %d: min-reduce %g, want %g", ep, gmin, want)
		}
		if failed != (ep == 3) {
			t.Errorf("epoch %d: failed=%v, want %v", ep, failed, ep == 3)
		}
	}
	bar.shutdown(4)
	wg.Wait()
}
