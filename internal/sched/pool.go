// Package sched is the measured-plane parallel runtime: a fixed worker
// pool, loop schedulers (static, chunked, guided, work stealing), and
// barrier primitives — the machinery needed to demonstrate load imbalance
// (W4), serialisation (W5), and spin-versus-block waiting (W10) on real
// goroutines with trace attribution. The lab runner and the tuner deal
// their work out on the same pool. A pool's one instrument is an optional
// trace.Recorder; it keeps no metrics registry.
package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"tenways/internal/trace"
)

// Pool executes parallel loops over [0, n) with a fixed number of workers
// under a choice of scheduling policies. An optional trace.Recorder, its
// only instrument, attributes each worker's time to compute versus waiting
// versus stealing; without one a loop records nothing.
// Worker 0 is the calling goroutine, so a loop on a pool of width w starts
// w−1 goroutines and a one-worker pool starts none; every loop returns
// once all its iterations have run.
type Pool struct {
	workers int
	rec     *trace.Recorder
}

// NewPool creates a pool of the given width (minimum 1). rec may be nil.
func NewPool(workers int, rec *trace.Recorder) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers, rec: rec}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// addSince charges [start, now).
func (p *Pool) addSince(worker int, cat trace.Category, start time.Time) {
	if p.rec != nil {
		p.rec.Add(worker, cat, time.Since(start))
	}
}

// spmd runs work(w) once per worker w, worker 0 on the calling goroutine,
// and returns when every worker has finished.
func (p *Pool) spmd(work func(w int)) {
	var wg sync.WaitGroup
	wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
}

// ForEachStatic runs body(i) for i in [0, n) under a static block
// partition: worker w gets one contiguous block. This is the wasteful
// choice under skewed per-iteration costs (W4).
func (p *Pool) ForEachStatic(n int, body func(i int)) {
	p.spmd(func(w int) {
		t0 := time.Now()
		lo, hi := w*n/p.workers, (w+1)*n/p.workers
		for i := lo; i < hi; i++ {
			body(i)
		}
		p.addSince(w, trace.Compute, t0)
	})
	p.chargeImbalanceIdle()
}

// chargeImbalanceIdle charges each worker's idle-at-the-join time: the gap
// between its own busy time and the busiest worker's, an approximation
// computed from the recorder. Without a recorder it is a no-op.
func (p *Pool) chargeImbalanceIdle() {
	if p.rec == nil {
		return
	}
	b := p.rec.Breakdown()
	var max time.Duration
	for _, w := range b.PerWorker {
		if busy := w.Busy(); busy > max {
			max = busy
		}
	}
	for w, wt := range b.PerWorker {
		if gap := max - wt.Busy() - wt.ByCategory[trace.Idle]; gap > 0 {
			p.rec.Add(w, trace.Idle, gap)
		}
	}
}

// ForEachChunked runs body(i) with workers pulling fixed-size chunks from a
// shared counter (dynamic self-scheduling).
func (p *Pool) ForEachChunked(n, chunk int, body func(i int)) {
	if chunk < 1 {
		chunk = 1
	}
	var next int64
	p.spmd(func(w int) {
		t0 := time.Now()
		for {
			lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
			if lo >= n {
				break
			}
			hi := min(lo+chunk, n)
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
		p.addSince(w, trace.Compute, t0)
	})
	p.chargeImbalanceIdle()
}

// ForEachGuided runs body(i) under guided self-scheduling: chunk sizes
// decay as remaining/(2·workers), bounded below by minChunk.
func (p *Pool) ForEachGuided(n, minChunk int, body func(i int)) {
	if minChunk < 1 {
		minChunk = 1
	}
	var next int64
	p.spmd(func(w int) {
		t0 := time.Now()
		for {
			cur := atomic.LoadInt64(&next)
			if int(cur) >= n {
				break
			}
			chunk := max((n-int(cur))/(2*p.workers), minChunk)
			if !atomic.CompareAndSwapInt64(&next, cur, cur+int64(chunk)) {
				continue
			}
			lo, hi := int(cur), min(int(cur)+chunk, n)
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
		p.addSince(w, trace.Compute, t0)
	})
	p.chargeImbalanceIdle()
}

// rangeTask is a stealable iteration range.
type rangeTask struct {
	mu     sync.Mutex
	lo, hi int
}

// grab takes up to k iterations from the bottom, returning an empty range
// when exhausted.
func (r *rangeTask) grab(k int) (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lo >= r.hi {
		return 0, 0
	}
	hi := r.lo + k
	if hi > r.hi {
		hi = r.hi
	}
	lo := r.lo
	r.lo = hi
	return lo, hi
}

// stealHalf takes the upper half of the remaining range.
func (r *rangeTask) stealHalf() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rem := r.hi - r.lo
	if rem <= 1 {
		return 0, 0
	}
	mid := r.lo + rem/2
	lo, hi := mid, r.hi
	r.hi = mid
	return lo, hi
}

// ForEachStealing runs body(i) with per-worker iteration ranges and
// Cilk-style half-range stealing: a worker that exhausts its range steals
// the upper half of a victim's remaining range. grain is the number of
// iterations taken per local grab.
func (p *Pool) ForEachStealing(n, grain int, body func(i int)) {
	if grain < 1 {
		grain = 1
	}
	ranges := make([]*rangeTask, p.workers)
	for w := 0; w < p.workers; w++ {
		ranges[w] = &rangeTask{lo: w * n / p.workers, hi: (w + 1) * n / p.workers}
	}
	p.spmd(func(w int) {
		my := ranges[w]
		for {
			lo, hi := my.grab(grain)
			if lo == hi {
				// Steal: scan victims round-robin from w+1.
				tSteal := time.Now()
				stolen := false
				for off := 1; off < p.workers; off++ {
					v := ranges[(w+off)%p.workers]
					if slo, shi := v.stealHalf(); slo != shi {
						my.mu.Lock()
						my.lo, my.hi = slo, shi
						my.mu.Unlock()
						stolen = true
						break
					}
				}
				p.addSince(w, trace.Steal, tSteal)
				if !stolen {
					return
				}
				continue
			}
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				body(i)
			}
			p.addSince(w, trace.Compute, t0)
		}
	})
	p.chargeImbalanceIdle()
}
