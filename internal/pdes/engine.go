package pdes

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// engine is the per-run state: one queue, one arena, and one Sched per
// partition, plus per-partition counters summed at the end so the window
// loop itself is atomic-free.
type engine struct {
	w    Workload
	n    int // ranks
	p    int // partitions
	look float64

	// seq holds the per-source emission counters. seq[r] is only ever
	// touched by the worker owning r's partition (handlers run on the rank
	// they target, and an event's Src is the handling rank), so the values
	// a rank's events carry do not depend on the partitioning.
	seq   []uint32
	parts []partState

	// bufs[parity][sp*p+dp] buffers events crossing from partition sp to
	// partition dp as a chunk chain. A window writes parity w&1 and drains
	// the opposite parity, so delivery into one partition's queue never
	// races with another partition still filling its own outgoing batches.
	// Chunks drain back into the receiving partition's arena.
	bufs [2][]batch

	// Serial-path window bookkeeping (multi-worker paths track the window
	// index per worker and count windows in the coordinator loop).
	window  int
	windows uint64
}

// partState gathers everything one partition's worker touches in the hot
// loop. The trailing pad keeps neighbouring partitions' counters off each
// other's cache lines — without it the per-window counter writes of
// adjacent partitions false-share (the paper's W9 in our own engine).
type partState struct {
	q     evQueue
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

func (s *partSched) Now() float64       { return s.now }
func (s *partSched) Rank() int          { return int(s.src) }
func (s *partSched) Lookahead() float64 { return s.eng.look }

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

// newEngine builds the per-run state for n ranks over p partitions. The
// caller has validated n, p, and cfg.Lookahead.
func newEngine(w Workload, n, p int, cfg Config) *engine {
	e := &engine{
		w: w, n: n, p: p, look: cfg.Lookahead,
		seq:   make([]uint32, n),
		parts: make([]partState, p),
	}
	e.bufs[0] = make([]batch, p*p)
	e.bufs[1] = make([]batch, p*p)
	width := cfg.BucketWidth
	if width <= 0 {
		width = cfg.Lookahead / 4
	}
	for d := 0; d < p; d++ {
		ps := &e.parts[d]
		if cfg.Queue == QueueHeap {
			ps.q = &binHeap{h: make([]Event, 0, 2*n/p+4)}
		} else {
			ps.q = newLadder(width)
		}
		ps.sched = partSched{eng: e, ps: ps, part: d}
		ps.crossMin = math.Inf(1)
		ps.lastT = math.Inf(-1)
	}
	return e
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

// stepWindow runs one window across every partition inline — the serial
// fast path (no goroutines, no barrier) used when the resolved worker
// count is 1. Returns the next GVT lower bound and whether any partition
// failed.
func (e *engine) stepWindow(gmin float64) (float64, bool) {
	wend := windowEnd(gmin, e.look)
	next := math.Inf(1)
	failed := false
	for d := 0; d < e.p; d++ {
		lmin, f := e.runWindow(d, wend, e.window)
		if lmin < next {
			next = lmin
		}
		if f {
			failed = true
		}
	}
	e.window++
	e.windows++
	return next, failed
}

// workerReport is one worker's per-window reduction over its partitions
// (chan-barrier path).
type workerReport struct {
	min  float64
	fail bool
}

// runChan is the wasteful multi-worker window loop F29 tables: persistent
// strided workers, a chan broadcast of the window end, and a report
// channel reduced by the coordinator — two channel operations per worker
// per window.
func (e *engine) runChan(nw int, gmin float64) {
	start := make([]chan float64, nw)
	reports := make(chan workerReport, nw)
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		start[wi] = make(chan float64, 1)
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			window := 0
			for wend := range start[wi] {
				rep := workerReport{min: math.Inf(1)}
				for d := wi; d < e.p; d += nw {
					lmin, failed := e.runWindow(d, wend, window)
					if lmin < rep.min {
						rep.min = lmin
					}
					if failed {
						rep.fail = true
					}
				}
				window++
				reports <- rep
			}
		}(wi)
	}
	failed := false
	for !failed && !math.IsInf(gmin, 1) {
		wend := windowEnd(gmin, e.look)
		for _, ch := range start {
			//lint:ignore chanbatch window broadcast: exactly one value per worker per window, nothing to batch
			ch <- wend
		}
		gmin = math.Inf(1)
		for range start {
			rep := <-reports
			if rep.min < gmin {
				gmin = rep.min
			}
			if rep.fail {
				failed = true
			}
		}
		e.windows++
	}
	for _, ch := range start {
		close(ch)
	}
	wg.Wait()
}

// runSense is the remedied multi-worker window loop: a padded
// sense-reversing barrier with the GVT min-reduce inlined into the
// coordinator's collect — one atomic publish and one bounded spin per
// worker per window.
func (e *engine) runSense(nw int, gmin float64) {
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
				min := math.Inf(1)
				fail := false
				for d := wi; d < e.p; d += nw {
					lmin, f := e.runWindow(d, wend, int(ep-1))
					if lmin < min {
						min = lmin
					}
					if f {
						fail = true
					}
				}
				bar.publish(wi, ep, min, fail)
			}
		}(wi)
	}
	ep := uint32(0)
	failed := false
	for !failed && !math.IsInf(gmin, 1) {
		ep++
		bar.issue(ep, windowEnd(gmin, e.look))
		gmin, failed = bar.collect(ep)
		e.windows++
	}
	bar.shutdown(ep + 1)
	wg.Wait()
}

// Run executes the workload to completion and returns the run summary. The
// first failing partition's error (lookahead violation, bad destination, or
// a recovered handler panic) is returned; partitions are scanned in index
// order so the reported error does not depend on worker scheduling.
func Run(w Workload, cfg Config) (Result, error) {
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

	e := newEngine(w, n, p, cfg)
	if err := e.seed(); err != nil {
		return Result{}, err
	}
	gmin := e.initialMin()

	switch {
	case nw == 1:
		failed := false
		for !failed && !math.IsInf(gmin, 1) {
			gmin, failed = e.stepWindow(gmin)
		}
	case cfg.Barrier == BarrierChan:
		e.runChan(nw, gmin)
	default:
		e.runSense(nw, gmin)
	}

	res := Result{Windows: e.windows, Partitions: p, Workers: nw}
	var chunkAllocs, respreads uint64
	ladders := false
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
		if lq, ok := ps.q.(*ladder); ok {
			ladders = true
			respreads += lq.respreads
		}
	}
	if reg := cfg.Obs; reg != nil {
		reg.Counter("pdes.runs").Inc()
		reg.Counter("pdes.events").Add(int64(res.Events))
		reg.Counter("pdes.windows").Add(int64(res.Windows))
		reg.Counter("pdes.window_stalls").Add(int64(res.Stalls))
		reg.Counter("pdes.cross_events").Add(int64(res.CrossEvents))
		reg.Counter("pdes.cross_batches").Add(int64(res.CrossBatches))
		reg.Counter("pdes.chunk_allocs").Add(int64(chunkAllocs))
		reg.Gauge("pdes.virtual_seconds").Add(res.VirtualTime)
		if ladders {
			reg.Counter("pdes.ladder_respreads").Add(int64(respreads))
		}
		if res.CrossBatches > 0 {
			reg.Histogram("pdes.batch_events").Observe(float64(res.CrossEvents) / float64(res.CrossBatches))
		}
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
