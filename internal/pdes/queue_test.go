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

// binHeap is the reference queue the ladder is checked against: a plain
// binary heap over Event values in the same (Time, Src, Seq) order.
type binHeap struct {
	h []Event
}

func (q *binHeap) len() int { return len(q.h) }

func (q *binHeap) peek() (float64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].Time, true
}

// push inserts ev, sifting up.
func (q *binHeap) push(ev Event) {
	h := append(q.h, ev)
	q.h = h
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !evLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the minimum event, sifting down. The caller
// guarantees the heap is non-empty.
func (q *binHeap) pop() Event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.h = h
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(&h[r], &h[l]) {
			m = r
		}
		if !evLess(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// seqSched is the engine's independent reference: one binHeap over every
// rank, popped in (Time, Src, Seq) order, with no windows, ladder, arena or
// barrier.
type seqSched struct {
	q   binHeap
	seq []uint64
	now float64
	src int32
}

func (s *seqSched) Now() float64 { return s.now }

func (s *seqSched) At(dst int, t float64, kind, step int32, data float64) {
	if dst < 0 || dst >= len(s.seq) {
		panic("pdes test: event outside the workload's ranks")
	}
	s.seq[s.src]++
	s.q.push(Event{Time: max(t, s.now), Data: data, Src: s.src, Dst: int32(dst), Seq: s.seq[s.src], Kind: kind, Step: step})
}

// runSequential runs w on the reference driver and returns the last
// event's time and the event count.
func runSequential(w Workload) (virtualTime float64, events uint64) {
	s := &seqSched{seq: make([]uint64, w.Ranks())}
	for r := range s.seq {
		s.src = int32(r)
		w.Init(s, r)
	}
	for s.q.len() > 0 {
		ev := s.q.pop()
		s.now, s.src = ev.Time, ev.Dst
		w.Handle(s, ev)
		events++
	}
	return s.now, events
}

// randomPush maps step i, its hash g, and the last popped time to a push.
// A coarse 16-bit time grid makes exact ties exercise the (Time, Src, Seq)
// tie-break.
func randomPush(i int, g uint64, now float64) Event {
	dt := float64(g%(1<<16)) / float64(1<<16) * 10e-6
	return Event{Time: now + dt, Src: int32(g % 64), Seq: uint64(i)}
}

// ladderStreams are the push streams the ladder tests replay; each maps
// step i, its hash g, and the last popped time to a push.
var ladderStreams = []struct {
	name string
	next func(i int, g uint64, now float64) Event
}{
	{"random", randomPush},
	{"monotone", func(i int, g uint64, now float64) Event {
		return Event{Time: float64(i) * 1e-9, Src: int32(g % 64), Seq: uint64(i)}
	}},
	{"skewed", func(i int, g uint64, now float64) Event {
		if g%8 == 0 {
			return randomPush(i, g>>3, now)
		}
		hot := (math.Floor(now/5e-6) + 2) * 5e-6
		return Event{Time: hot, Src: int32(g % 64), Seq: uint64(i)}
	}},
}

// TestLadderMatchesHeapOnRandomStream drives the ladder and the reference
// heap through the same interleaved push/pop stream — pushes never travel backwards past the
// last pop, the engine's usage pattern — and demands identical pop
// sequences. The width sweep forces every ladder path: tiny widths respread
// constantly, huge widths funnel everything through one bucket. The streams
// aim at the slab paths: monotone pushes fill buckets already in order (the
// sorted-bucket skip) that merge into a spent run (the swap merge); skewed
// pushes pile onto one instant, so its bucket outgrows every spare slab
// (trade-up, then allocation) while the rest stay small.
func TestLadderMatchesHeapOnRandomStream(t *testing.T) {
	for _, s := range ladderStreams {
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

// FuzzQueueEquivalence is the engine's safety net and its determinism
// contract as a search: a seeded random workload through any engine
// configuration — partition counts that do not divide the rank count,
// serial and barrier-synchronised workers, bucket widths from constant
// respreads to one giant bucket — must produce the 1-partition run's events,
// virtual time and per-rank trace chains. One event skipped or reordered
// changes every subsequent hash of its rank's chain. Partitions wrap into
// [1, 16], workers into [1, min(partitions, 4)] and the width exponent
// into [-8, 14], so no input starts more than three helper goroutines.
func FuzzQueueEquivalence(f *testing.F) {
	const n = 96
	const look = 2e-6
	// The fixed grid this target grew from: three seeds through seven
	// configurations (bucket width look * 2^widthExp).
	for _, seed := range []uint64{1, 0xabcdef, 77777} {
		for _, c := range []struct {
			parts, workers uint8
			widthExp       int8
		}{
			{1, 1, -6},
			{1, 1, 13},
			{7, 1, -2},
			{7, 3, -2},
			{16, 4, -6}, // constant respreads
			{16, 4, 13}, // one giant bucket
			{16, 4, -2},
		} {
			f.Add(seed, c.parts, c.workers, c.widthExp)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, parts, workers uint8, widthExp int8) {
		p := wrap(int(parts), 1, 16)
		cfg := Config{Partitions: p, Workers: wrap(int(workers), 1, min(p, 4)), Lookahead: look}
		width := look * math.Exp2(float64(wrap(int(widthExp), -8, 14)))
		base := newRandWorkload(n, seed, look)
		bres, err := Run(base, Config{Partitions: 1, Workers: 1, Lookahead: look})
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		if bres.Events == 0 {
			t.Fatal("baseline produced no events")
		}
		w := newRandWorkload(n, seed, look)
		res, err := run(w, cfg, width)
		if err != nil {
			t.Fatalf("parts=%d workers=%d width=%g: %v", cfg.Partitions, cfg.Workers, width, err)
		}
		if res.Events != bres.Events || res.VirtualTime != bres.VirtualTime {
			t.Errorf("parts=%d workers=%d width=%g: events %d / vt %g, baseline %d / %g",
				cfg.Partitions, cfg.Workers, width, res.Events, res.VirtualTime, bres.Events, bres.VirtualTime)
		}
		for r := 0; r < n; r++ {
			if w.trace[r] != base.trace[r] {
				t.Fatalf("parts=%d workers=%d width=%g: rank %d trace %x, baseline %x",
					cfg.Partitions, cfg.Workers, width, r, w.trace[r], base.trace[r])
			}
		}
	})
}

// wrap maps v into [lo, hi], leaving values already in range unchanged.
func wrap(v, lo, hi int) int {
	span := hi - lo + 1
	return lo + ((v-lo)%span+span)%span
}

// TestWindowLoopSteadyStateZeroAlloc is the slab-arena acceptance gate:
// once each ladder's spare list holds a slab for every bucket, run, and
// overflow that needs one, and the chunk free lists reach their high-water
// marks, the window loop must not allocate at all — across bucket merges
// (swapped or copied into the run), overflow respreads, slab trade-ups, and
// cross-partition chunk recycling.
func TestWindowLoopSteadyStateZeroAlloc(t *testing.T) {
	w := mustWave(t, 512, 400, 50e-6, 0, []int{1, 4}, []float64{2e-6, 2.5e-6})
	look := w.MinDelay()
	e := newEngine(w, w.Ranks(), 4, look, look/bucketsPerWindow)
	if err := e.seed(); err != nil {
		t.Fatal(err)
	}
	bar := newSenseBarrier(1)
	ep := uint32(0)
	gmin := e.initialMin()
	failed := false
	step := func(k int) {
		for i := 0; i < k && !failed && !math.IsInf(gmin, 1); i++ {
			ep++
			gmin, failed = e.step(bar, ep, gmin)
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

// heapBytesPerRun is what one run of TestLadderMemoryWithinTwiceHeap's
// configuration allocated under the binary-heap queue the engine carried
// until commit 0931a43: 8,759,088 bytes with Go 1.24 on linux/amd64, where
// the ladder allocated 8,813,312 (BenchmarkPDESIdleWave/parts=8/queue=heap
// reported the same 8.76 MB/op).
const heapBytesPerRun = 8_759_088

// TestLadderMemoryWithinTwiceHeap gates the ladder's memory against the
// heap's on BenchmarkPDESIdleWave's configuration (2^14 ranks, 6 steps, 8
// partitions): the bytes one run allocates, workload construction included
// as in the benchmark's B/op, must stay within twice the heap's recorded
// bytes. A ladder whose slabs stay pinned to their bucket index allocates
// about 6x. The run is cold whatever ran before it: ladders parked by an
// earlier test would hide the ladder's own allocation.
func TestLadderMemoryWithinTwiceHeap(t *testing.T) {
	drainLadders()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := mustWave(t, 1<<14, 6, 50e-6, 400e-6, []int{1, 4}, []float64{2e-6, 2.5e-6})
	if _, err := Run(w, Config{Partitions: 8, Lookahead: w.MinDelay()}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	ladder := after.TotalAlloc - before.TotalAlloc
	t.Logf("bytes allocated per run: ladder %d, recorded heap %d (%.2fx)", ladder, heapBytesPerRun, float64(ladder)/heapBytesPerRun)
	if ladder > 2*heapBytesPerRun {
		t.Errorf("ladder allocates %d bytes per run, more than twice the heap's recorded %d", ladder, heapBytesPerRun)
	}
}

// TestSenseBarrierProtocol drives the barrier the way the window loop does.
// The caller opens each epoch, publishes slot 0 and then collects; helpers
// publish slots 1..nw-1. Each epoch's minimum comes from a different slot
// (the caller's at epoch 4), a helper fails at epoch 3 and the caller at
// epoch 4, and shutdown releases the helpers.
func TestSenseBarrierProtocol(t *testing.T) {
	const nw, epochs = 4, 5
	slotMin := func(wi int, ep uint32) float64 { return float64(ep)*10 + float64((wi+int(ep))%nw) }
	bar := newSenseBarrier(nw)
	var wg sync.WaitGroup
	for wi := 1; wi < nw; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for ep := uint32(1); ; ep++ {
				wend, ok := bar.await(ep)
				if !ok {
					return
				}
				if wend != float64(ep)*10 {
					t.Errorf("helper %d epoch %d: wend %g", wi, ep, wend)
				}
				bar.publish(wi, ep, slotMin(wi, ep), wi == 2 && ep == 3)
			}
		}(wi)
	}
	for ep := uint32(1); ep <= epochs; ep++ {
		bar.issue(ep, float64(ep)*10)
		bar.publish(0, ep, slotMin(0, ep), ep == 4)
		gmin, failed := bar.collect(ep)
		if want := float64(ep) * 10; gmin != want {
			t.Errorf("epoch %d: min-reduce %g, want %g", ep, gmin, want)
		}
		if want := ep == 3 || ep == 4; failed != want {
			t.Errorf("epoch %d: failed=%v, want %v", ep, failed, want)
		}
	}
	bar.shutdown(epochs + 1)
	wg.Wait()
}
