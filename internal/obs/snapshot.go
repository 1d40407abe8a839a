package obs

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// Bucket is one non-empty histogram bucket: Le is the exclusive upper bound
// of the bucket's value range. The overflow bucket's bound is capped at
// math.MaxFloat64 at snapshot time so the snapshot stays JSON-encodable.
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistSnapshot is a histogram's state at snapshot time: only non-empty
// buckets are kept.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the mean observation, or 0 for an empty histogram.
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a registry's state at one instant: plain maps, safe to
// marshal, compare, and merge. Zero-valued instruments are omitted.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. It is safe to call while
// other goroutines keep recording; the result is a per-instrument-atomic
// (not globally atomic) view. A nil registry's snapshot is empty.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{}
	for k, c := range counters {
		if v := c.Value(); v != 0 {
			if s.Counters == nil {
				s.Counters = make(map[string]int64)
			}
			s.Counters[k] = v
		}
	}
	for k, g := range gauges {
		if v := g.Value(); v != 0 {
			if s.Gauges == nil {
				s.Gauges = make(map[string]float64)
			}
			s.Gauges[k] = v
		}
	}
	for k, h := range hists {
		hs := snapshotHist(h)
		if hs.Count == 0 {
			continue
		}
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistSnapshot)
		}
		s.Histograms[k] = hs
	}
	return s
}

func snapshotHist(h *Histogram) HistSnapshot {
	hs := HistSnapshot{Count: h.Count(), Sum: h.Sum()}
	for i := 0; i < histBuckets; i++ {
		if n := h.counts[i].Load(); n > 0 {
			le := BucketUpperBound(i)
			if math.IsInf(le, 1) {
				le = math.MaxFloat64 // keep the snapshot JSON-encodable
			}
			hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: n})
		}
	}
	return hs
}

// Merge returns the associative combination of two snapshots: counters and
// gauges add, histograms add bucketwise. Neither input is mutated.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{}
	if len(s.Counters)+len(o.Counters) > 0 {
		out.Counters = make(map[string]int64, len(s.Counters)+len(o.Counters))
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
		for k, v := range o.Counters {
			out.Counters[k] += v
		}
	}
	if len(s.Gauges)+len(o.Gauges) > 0 {
		out.Gauges = make(map[string]float64, len(s.Gauges)+len(o.Gauges))
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range o.Gauges {
			out.Gauges[k] += v
		}
	}
	if len(s.Histograms)+len(o.Histograms) > 0 {
		out.Histograms = make(map[string]HistSnapshot, len(s.Histograms)+len(o.Histograms))
		for k, v := range s.Histograms {
			out.Histograms[k] = cloneHist(v)
		}
		for k, v := range o.Histograms {
			out.Histograms[k] = mergeHist(out.Histograms[k], v)
		}
	}
	return out
}

func cloneHist(h HistSnapshot) HistSnapshot {
	h.Buckets = append([]Bucket(nil), h.Buckets...)
	return h
}

// mergeHist adds two bucket lists, both sorted by Le, into one.
func mergeHist(a, b HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	i, j := 0, 0
	for i < len(a.Buckets) || j < len(b.Buckets) {
		switch {
		case j >= len(b.Buckets) || (i < len(a.Buckets) && a.Buckets[i].Le < b.Buckets[j].Le):
			out.Buckets = append(out.Buckets, a.Buckets[i])
			i++
		case i >= len(a.Buckets) || b.Buckets[j].Le < a.Buckets[i].Le:
			out.Buckets = append(out.Buckets, b.Buckets[j])
			j++
		default: // equal edges: combine
			out.Buckets = append(out.Buckets, Bucket{Le: a.Buckets[i].Le, Count: a.Buckets[i].Count + b.Buckets[j].Count})
			i++
			j++
		}
	}
	return out
}

// Counter returns a counter's value from the snapshot (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's value from the snapshot (0 if absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// String renders the snapshot compactly for logs: sorted "name=value"
// pairs, histograms as count/mean.
func (s Snapshot) String() string {
	parts := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for _, k := range names(s.Counters) {
		parts = append(parts, k+"="+strconv.FormatInt(s.Counters[k], 10))
	}
	for _, k := range names(s.Gauges) {
		parts = append(parts, k+"="+strconv.FormatFloat(s.Gauges[k], 'g', 4, 64))
	}
	for _, k := range names(s.Histograms) {
		h := s.Histograms[k]
		parts = append(parts, k+"=n"+strconv.FormatUint(h.Count, 10)+
			"/mean"+strconv.FormatFloat(h.Mean(), 'g', 4, 64))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
