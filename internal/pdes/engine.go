package pdes

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// engine is the per-run state: one ladder (borrowed from the free list for
// the run), one arena, and one Sched per partition, plus per-partition
// counters summed at the end so the window loop itself is atomic-free.
type engine struct {
	w    Workload
	n    int // ranks
	p    int // partitions
	look float64

	// seq holds the per-source emission counters. seq[r] is only ever
	// touched by the worker owning r's partition (handlers run on the rank
	// they target, and an event's Src is the handling rank), so the values
	// a rank's events carry do not depend on the partitioning.
	seq   []uint64
	parts []partState

	// bufs[parity][sp*p+dp] buffers events crossing from partition sp to
	// partition dp as a chunk chain. A window writes parity w&1 and drains
	// the opposite parity, so delivery into one partition's queue never
	// races with another partition still filling its own outgoing batches.
	// Chunks drain back into the receiving partition's arena.
	bufs [2][]batch

	windows uint64 // windows executed, counted by worker 0
}

// partState gathers everything one partition's worker touches in the hot
// loop. The trailing pad keeps neighbouring partitions' counters off each
// other's cache lines — without it the per-window counter writes of
// adjacent partitions false-share (the paper's W9 in our own engine).
type partState struct {
	q     *ladder
	sched partSched
	arena arena

	crossMin float64 // min timestamp buffered cross-partition this window
	lastT    float64 // timestamp of the partition's last processed event
	events   uint64
	stalls   uint64
	xev      uint64
	xbatch   uint64
	err      error

	_ [64]byte
}

func (e *engine) part(rank int) int {
	return int(int64(rank) * int64(e.p) / int64(e.n))
}

// partSched is the partitioned engine's Sched. One per partition; its
// rank/time fields are set before each Init or Handle call.
type partSched struct {
	eng    *engine
	ps     *partState
	part   int
	parity int
	wend   float64 // current window end; 0 during Init (no lookahead gate)
	now    float64
	src    int32
}

func (s *partSched) Now() float64 { return s.now }

func (s *partSched) fail(err error) {
	if s.ps.err == nil {
		s.ps.err = err
	}
}

func (s *partSched) At(dst int, t float64, kind, step int32, data float64) {
	e := s.eng
	if dst < 0 || dst >= e.n {
		s.fail(fmt.Errorf("pdes: rank %d scheduled event on rank %d, outside [0, %d)", s.src, dst, e.n))
		return
	}
	if t < s.now {
		t = s.now
	}
	e.seq[s.src]++
	ev := Event{Time: t, Data: data, Src: s.src, Dst: int32(dst), Seq: e.seq[s.src], Kind: kind, Step: step}
	dp := e.part(dst)
	if dp == s.part {
		s.ps.q.push(ev)
		return
	}
	if s.wend > 0 && t < s.wend {
		s.fail(fmt.Errorf(
			"pdes: lookahead violation: rank %d -> rank %d at t=%g lands inside the window ending at %g; cross-rank messages need delay >= lookahead (%g)",
			s.src, dst, t, s.wend, e.look))
		return
	}
	bt := &e.bufs[s.parity][s.part*e.p+dp]
	if bt.head == nil {
		s.ps.xbatch++
	}
	bt.add(ev, &s.ps.arena)
	s.ps.xev++
	if t < s.ps.crossMin {
		s.ps.crossMin = t
	}
}

// newEngine builds the per-run state for n ranks over p partitions with
// the given window length and ladder bucket width. The caller has
// validated n, p, and look.
func newEngine(w Workload, n, p int, look, width float64) *engine {
	e := &engine{
		w: w, n: n, p: p, look: look,
		seq:   make([]uint64, n),
		parts: make([]partState, p),
	}
	e.bufs[0] = make([]batch, p*p)
	e.bufs[1] = make([]batch, p*p)
	for d := 0; d < p; d++ {
		ps := &e.parts[d]
		ps.q = getLadder(width)
		ps.sched = partSched{eng: e, ps: ps, part: d}
		ps.crossMin = math.Inf(1)
		ps.lastT = math.Inf(-1)
	}
	return e
}

// release detaches every partition's ladder and parks it on the free list.
// Detaching first means a Sched kept past the end of its Run panics on its
// next same-partition At instead of pushing into a ladder that another run
// may own by then.
func (e *engine) release() {
	for d := range e.parts {
		ps := &e.parts[d]
		q := ps.q
		ps.q = nil
		putLadder(q)
	}
}

// seed runs Init for every rank serially, in rank order: emissions land in
// the queues or in the parity-1 batches that window 0 delivers, so they may
// target any rank at any non-negative time.
func (e *engine) seed() error {
	is := partSched{eng: e, parity: 1}
	for r := 0; r < e.n; r++ {
		d := e.part(r)
		is.part = d
		is.ps = &e.parts[d]
		is.src = int32(r)
		is.now = 0
		e.w.Init(&is, r)
	}
	return e.firstError()
}

// initialMin computes the first GVT lower bound after seeding.
func (e *engine) initialMin() float64 {
	gmin := math.Inf(1)
	for d := range e.parts {
		ps := &e.parts[d]
		if t, ok := ps.q.peek(); ok && t < gmin {
			gmin = t
		}
		if ps.crossMin < gmin {
			gmin = ps.crossMin
		}
	}
	return gmin
}

// windowEnd advances gmin by one lookahead, degrading to one-ULP steps if
// the lookahead underflows against a large virtual time.
func windowEnd(gmin, look float64) float64 {
	wend := gmin + look
	if wend <= gmin {
		wend = math.Nextafter(gmin, math.Inf(1))
	}
	return wend
}

// runWindow advances one partition through one window [gvt, wend): deliver
// the chunk chains the previous window buffered for it, then process every
// pending event timestamped before wend. It returns the partition's lower
// bound on future work (min of queue head and freshly buffered cross
// events) and whether the partition has failed.
func (e *engine) runWindow(d int, wend float64, window int) (lmin float64, failed bool) {
	lmin = math.Inf(1)
	ps := &e.parts[d]
	defer func() {
		if r := recover(); r != nil {
			if ps.err == nil {
				ps.err = fmt.Errorf("pdes: partition %d handler panicked: %v", d, r)
			}
			failed = true
		}
	}()
	if ps.err != nil {
		return lmin, true
	}
	wp := window & 1
	q := ps.q
	for sp := 0; sp < e.p; sp++ {
		bt := &e.bufs[1-wp][sp*e.p+d]
		for c := bt.head; c != nil; {
			for i := 0; i < c.n; i++ {
				q.push(c.ev[i])
			}
			nx := c.next
			ps.arena.put(c)
			c = nx
		}
		bt.head, bt.tail = nil, nil
	}
	ps.crossMin = math.Inf(1)
	s := &ps.sched
	s.parity = wp
	s.wend = wend
	processed := uint64(0)
	for {
		t, ok := q.peek()
		if !ok || t >= wend {
			break
		}
		ev := q.pop()
		s.now = ev.Time
		s.src = ev.Dst
		ps.lastT = ev.Time
		e.w.Handle(s, ev)
		processed++
		if ps.err != nil {
			failed = true
			break
		}
	}
	ps.events += processed
	if processed == 0 {
		ps.stalls++
	}
	if m := ps.crossMin; m < lmin {
		lmin = m
	}
	if t, ok := q.peek(); ok && t < lmin {
		lmin = t
	}
	return lmin, failed
}

// stride advances worker wi's partitions (wi, wi+nw, wi+2nw, ...) through
// window ep and returns their minimum lower bound on future work and
// whether any of them failed. It is the only loop over a worker's
// partitions, shared by the caller and every helper.
func (e *engine) stride(wi, nw int, wend float64, ep uint32) (min float64, fail bool) {
	min = math.Inf(1)
	for d := wi; d < e.p; d += nw {
		lmin, f := e.runWindow(d, wend, int(ep-1))
		if lmin < min {
			min = lmin
		}
		if f {
			fail = true
		}
	}
	return min, fail
}

// step runs window ep as worker 0 and coordinator: open the epoch, run
// stride 0, publish slot 0, then collect every slot into the next GVT
// lower bound. With one slot, collect reads the caller's own store, so a
// single-worker run takes this same path without spinning.
func (e *engine) step(bar *senseBarrier, ep uint32, gmin float64) (float64, bool) {
	wend := windowEnd(gmin, e.look)
	bar.issue(ep, wend)
	min, fail := e.stride(0, len(bar.slots), wend, ep)
	bar.publish(0, ep, min, fail)
	e.windows++
	return bar.collect(ep)
}

// loop is the window loop for every worker count: the caller steps as
// worker 0 while nw-1 helper goroutines run the other strides, all
// synchronised by a padded sense-reversing barrier with the GVT min-reduce
// inlined into collect — one atomic publish and one bounded spin per
// worker per window.
func (e *engine) loop(nw int, gmin float64) {
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
				min, fail := e.stride(wi, nw, wend, ep)
				bar.publish(wi, ep, min, fail)
			}
		}(wi)
	}
	ep := uint32(0)
	failed := false
	for !failed && !math.IsInf(gmin, 1) {
		ep++
		gmin, failed = e.step(bar, ep, gmin)
	}
	bar.shutdown(ep + 1)
	wg.Wait()
}

// bucketsPerWindow fixes the ladder's bucket width at Lookahead divided by
// this count.
const bucketsPerWindow = 4

// Run executes the workload to completion and returns the run summary. The
// first failing partition's error (lookahead violation, bad destination, or
// a recovered handler panic) is returned; partitions are scanned in index
// order so the reported error does not depend on worker scheduling.
func Run(w Workload, cfg Config) (Result, error) {
	return run(w, cfg, cfg.Lookahead/bucketsPerWindow)
}

// run is Run with an explicit ladder bucket width, which package tests pin
// to extremes (constant respreads, one giant bucket).
func run(w Workload, cfg Config, width float64) (Result, error) {
	n := w.Ranks()
	if n < 1 {
		return Result{}, fmt.Errorf("pdes: workload has %d ranks, need at least 1", n)
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	p := cfg.Partitions
	if p <= 0 {
		p = 8
	}
	if p > n {
		p = n
	}
	nw := cfg.Workers
	if nw <= 0 {
		// More workers than cores only adds scheduling churn: every worker
		// must finish every window, so the default caps at the machine.
		// Any worker count produces identical results.
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > p {
		nw = p
	}
	if nw < 1 {
		nw = 1
	}

	e := newEngine(w, n, p, cfg.Lookahead, width)
	defer e.release()
	if err := e.seed(); err != nil {
		return Result{}, err
	}

	e.loop(nw, e.initialMin())

	res := Result{Windows: e.windows, Partitions: p, Workers: nw}
	var chunkAllocs, respreads uint64
	for d := 0; d < p; d++ {
		ps := &e.parts[d]
		res.Events += ps.events
		res.Stalls += ps.stalls
		res.CrossEvents += ps.xev
		res.CrossBatches += ps.xbatch
		if ps.lastT > res.VirtualTime {
			res.VirtualTime = ps.lastT
		}
		chunkAllocs += ps.arena.allocs
		respreads += ps.q.respreads
	}
	reg := cfg.Obs
	reg.Counter("pdes.runs").Inc()
	reg.Counter("pdes.events").Add(int64(res.Events))
	reg.Counter("pdes.windows").Add(int64(res.Windows))
	reg.Counter("pdes.window_stalls").Add(int64(res.Stalls))
	reg.Counter("pdes.cross_events").Add(int64(res.CrossEvents))
	reg.Counter("pdes.cross_batches").Add(int64(res.CrossBatches))
	reg.Counter("pdes.chunk_allocs").Add(int64(chunkAllocs))
	reg.Gauge("pdes.virtual_seconds").Add(res.VirtualTime)
	reg.Counter("pdes.ladder_respreads").Add(int64(respreads))
	if res.CrossBatches > 0 {
		reg.Histogram("pdes.batch_events").Observe(float64(res.CrossEvents) / float64(res.CrossBatches))
	}
	return res, e.firstError()
}

// firstError returns the lowest-indexed partition's error, deterministic
// regardless of which worker hit it first.
func (e *engine) firstError() error {
	for d := range e.parts {
		if err := e.parts[d].err; err != nil {
			return err
		}
	}
	return nil
}
