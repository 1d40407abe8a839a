// Package trace attributes measured wall-clock time on the real-goroutine
// execution plane into the categories the keynote says parallel programs
// waste time in: computing, waiting on synchronisation, waiting on
// communication, stealing work, sitting idle, and executing serial
// sections. The core.Diagnose engine turns a trace breakdown into matched
// waste modes.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Category classifies where a worker's time went.
type Category int

// The categories, in presentation order.
const (
	Compute Category = iota
	SyncWait
	CommWait
	Steal
	Serial
	Idle
	Noise
	numCategories
)

// Categories lists all categories in presentation order.
func Categories() []Category {
	return []Category{Compute, SyncWait, CommWait, Steal, Serial, Idle, Noise}
}

// String names the category.
func (c Category) String() string {
	switch c {
	case Compute:
		return "compute"
	case SyncWait:
		return "sync-wait"
	case CommWait:
		return "comm-wait"
	case Steal:
		return "steal"
	case Serial:
		return "serial"
	case Idle:
		return "idle"
	case Noise:
		return "noise"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// workerClock is one worker's per-category nanosecond counters, padded to
// its own cache line so recording does not itself false-share (which would
// be a dark irony in this particular library).
type workerClock struct {
	ns [numCategories]int64
	_  [64 - (numCategories*8)%64]byte
}

// Recorder accumulates per-worker, per-category durations. Methods are safe
// for concurrent use by distinct workers; two goroutines must not share a
// worker index.
type Recorder struct {
	workers []workerClock
	started time.Time
}

// NewRecorder creates a recorder for n workers and starts its wall clock.
func NewRecorder(n int) *Recorder {
	return &Recorder{workers: make([]workerClock, n), started: time.Now()}
}

// Add charges d to the worker's category.
func (r *Recorder) Add(worker int, cat Category, d time.Duration) {
	atomic.AddInt64(&r.workers[worker].ns[cat], int64(d))
}

// Breakdown snapshots the recorder.
func (r *Recorder) Breakdown() Breakdown {
	b := Breakdown{
		Wall:      time.Since(r.started),
		PerWorker: make([]WorkerTimes, len(r.workers)),
	}
	for w := range r.workers {
		for c := Category(0); c < numCategories; c++ {
			d := time.Duration(atomic.LoadInt64(&r.workers[w].ns[c]))
			b.PerWorker[w].ByCategory[c] = d
			b.Total[c] += d
		}
	}
	return b
}

// WorkerTimes is one worker's per-category durations.
type WorkerTimes struct {
	ByCategory [numCategories]time.Duration
}

// Busy returns the worker's productive time (compute + serial).
func (w WorkerTimes) Busy() time.Duration {
	return w.ByCategory[Compute] + w.ByCategory[Serial]
}

// Breakdown is an immutable snapshot of a Recorder.
type Breakdown struct {
	Wall      time.Duration
	Total     [numCategories]time.Duration
	PerWorker []WorkerTimes
}

// Of returns the total time in the category.
func (b Breakdown) Of(cat Category) time.Duration { return b.Total[cat] }

// Sum returns total attributed time across all categories and workers.
func (b Breakdown) Sum() time.Duration {
	var s time.Duration
	for c := Category(0); c < numCategories; c++ {
		s += b.Total[c]
	}
	return s
}

// Fraction returns the category's share of all attributed time, 0 if none.
func (b Breakdown) Fraction(cat Category) float64 {
	s := b.Sum()
	if s == 0 {
		return 0
	}
	return float64(b.Total[cat]) / float64(s)
}

// Imbalance measures load imbalance over workers' busy time: the classic
// max/mean − 1 (0 = perfectly balanced, 1 = the busiest worker has twice
// the mean). Returns 0 when no busy time was recorded.
func (b Breakdown) Imbalance() float64 {
	if len(b.PerWorker) == 0 {
		return 0
	}
	var max, sum time.Duration
	for _, w := range b.PerWorker {
		busy := w.Busy()
		sum += busy
		if busy > max {
			max = busy
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(b.PerWorker))
	return float64(max)/mean - 1
}

// String renders the breakdown compactly, categories sorted by time.
func (b Breakdown) String() string {
	type kv struct {
		c Category
		d time.Duration
	}
	items := make([]kv, 0, len(Categories()))
	for _, c := range Categories() {
		if b.Total[c] > 0 {
			items = append(items, kv{c, b.Total[c]})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].d != items[j].d {
			return items[i].d > items[j].d
		}
		return items[i].c < items[j].c
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "wall=%v", b.Wall.Round(time.Microsecond))
	for _, it := range items {
		fmt.Fprintf(&sb, " %s=%v(%.0f%%)", it.c, it.d.Round(time.Microsecond), 100*b.Fraction(it.c))
	}
	return sb.String()
}
