package pdes

import (
	"math"
	"runtime"
	"sync/atomic"
)

// senseBarrier is the window hand-off between the caller of run, which is
// worker 0 and the coordinator, and its nw-1 helpers: a sense-reversing
// barrier with an inline min-reduce — one atomic publish and one bounded
// spin per worker per window, where a chan broadcast plus a report channel
// would cost two channel operations per worker per window (send/recv futex
// traffic the paper would file under synchronisation waste).
//
// Protocol, per window w (epoch e = w+1 so the zero value means "idle"):
//
//	caller:   wend = ...; epoch.Store(e)           // release: publishes wend
//	helper i: spin until epoch.Load() == e         // acquire
//	each:     run own stride; slots[i].min/fail = ...
//	          slots[i].done.Store(e)               // release: publishes slot
//	caller:   for each i: spin until done == e     // acquire
//	          fold slots[i].min into gmin          // inline min-reduce
//
// The caller publishes slot 0 before it collects, so with one worker
// collect reads the caller's own store and never spins. Go's atomics give
// the release/acquire ordering, so the plain wend and slot fields are
// race-free. Each worker slot sits on its own cache line (W9 territory: a
// shared line would ping-pong between a publishing helper and the
// collecting caller). Spins yield to the scheduler after a short burst so
// the barrier also works oversubscribed (GOMAXPROCS < workers), just
// slower.
type senseBarrier struct {
	wend  float64 // window end; written by the caller before epoch.Store
	stop  bool    // shutdown flag; written by the caller before epoch.Store
	epoch atomic.Uint32
	_     [44]byte // keep worker slots off the caller's publish line
	slots []wslot
}

// wslot is one worker's publish slot, padded to a cache line.
type wslot struct {
	min  float64 // worker's min lower bound over its partitions this window
	fail bool    // any partition failed
	done atomic.Uint32
	_    [44]byte
}

func newSenseBarrier(workers int) *senseBarrier {
	return &senseBarrier{slots: make([]wslot, workers)}
}

// issue opens window epoch e with the given window end.
func (b *senseBarrier) issue(e uint32, wend float64) {
	b.wend = wend
	b.epoch.Store(e)
}

// shutdown releases the helpers one last time with the stop flag set.
func (b *senseBarrier) shutdown(e uint32) {
	b.stop = true
	b.epoch.Store(e)
}

// await blocks helper-side until epoch e opens; ok is false on shutdown.
func (b *senseBarrier) await(e uint32) (wend float64, ok bool) {
	spinWait(&b.epoch, e)
	return b.wend, !b.stop
}

// publish posts worker wi's window reduction — the one atomic store on the
// worker's window exit path.
func (b *senseBarrier) publish(wi int, e uint32, min float64, fail bool) {
	s := &b.slots[wi]
	s.min = min
	s.fail = fail
	s.done.Store(e)
}

// collect folds every worker's slot for epoch e, the caller's own slot 0
// included — the inline min-reduce that replaces the report channel.
func (b *senseBarrier) collect(e uint32) (gmin float64, failed bool) {
	gmin = math.Inf(1)
	for i := range b.slots {
		s := &b.slots[i]
		spinWait(&s.done, e)
		if s.min < gmin {
			gmin = s.min
		}
		if s.fail {
			failed = true
		}
	}
	return gmin, failed
}

// spinWait hot-spins briefly, then yields between probes so a spinning
// party cannot starve the worker it is waiting on when cores are scarce.
func spinWait(v *atomic.Uint32, target uint32) {
	for spins := 0; v.Load() != target; spins++ {
		if spins > 64 {
			runtime.Gosched()
		}
	}
}
