// Package obs is the lab's dependency-free metrics layer: named counters,
// gauges and histograms with fixed log-scale buckets, grouped in a
// Registry. Every instrument is safe for concurrent use (the parallel lab
// runner executes experiments on a bounded worker pool, and the measured
// plane's pools record from real threads), and a Registry can be
// snapshotted at any time into a plain, JSON-serialisable Snapshot that
// merges associatively across registries.
//
// The instrumented hot paths — the pdes engine, the collectives, the
// scheduler pools, the chaos injectors, the tuner — each write to the
// Registry they were handed. A nil *Registry is the silent registry: its
// accessors return nil instruments, whose methods do nothing, and its
// Snapshot is empty, so code handed no registry records nothing at the
// cost of a nil check. core.Lab.RunAll hands every experiment a fresh
// Registry, so a RunResult carries exactly the metric activity of its own
// experiment even when eight of them run at once.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. A nil *Counter
// records nothing and reads 0.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is tolerated but makes the counter a gauge in
// spirit; prefer Gauge for that).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an accumulating float metric (seconds of idle time, joules,
// injected delay). Add accumulates; Set overwrites. Snapshots merge gauges
// by summing, so treat a Gauge as an accumulator when results will be
// aggregated. A nil *Gauge records nothing and reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add accumulates d into the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout: fixed base-2 log-scale buckets covering
// [2^histMinExp, 2^histMaxExp). Observations below the range land in the
// first bucket, at or above it in the last. The range spans from well under
// a nanosecond to a few billion, which covers every quantity the lab
// observes (seconds, bytes, events).
const (
	histMinExp  = -31
	histMaxExp  = 33
	histBuckets = histMaxExp - histMinExp // 64
)

// Histogram counts observations into fixed log-scale buckets and tracks
// their sum and count. The zero value is ready to use; a nil *Histogram
// records nothing and reads empty.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	// The bucket array, the sum, and the count are all written on every
	// Observe; without padding they would share cache lines and ping-pong
	// between recording cores — the W9 waste this lab models.
	_       [56]byte
	sumBits atomic.Uint64
	_       [56]byte
	count   atomic.Uint64
}

// bucketOf returns the bucket index for v: floor(log2(v)) clamped to the
// fixed range. Computed with Frexp, not Log, so boundary values bucket
// deterministically on every platform.
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	// Frexp: v = frac * 2^exp with frac in [0.5, 1), so floor(log2(v)) is
	// exp-1 exactly, powers of two included (8 = 0.5 * 2^4 -> exp-1 = 3).
	// A boundary value 2^k therefore lands in the bucket whose half-open
	// range [2^k, 2^(k+1)) starts at it.
	_, exp := math.Frexp(v)
	i := exp - 1 - histMinExp
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// BucketUpperBound returns the exclusive upper bound of bucket i (the "le"
// edge reported in snapshots). The last bucket reports +Inf.
func BucketUpperBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, histMinExp+i+1)
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry is a named set of instruments. Get-or-create accessors hand out
// stable pointers, so hot paths fetch their instruments once and then touch
// only atomics. A nil *Registry is the silent registry: every accessor
// returns a nil instrument and Snapshot is empty.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// names returns the sorted keys of a map, for deterministic iteration.
func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
