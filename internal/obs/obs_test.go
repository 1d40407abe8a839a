package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("get-or-create should return the same counter")
	}
	g := r.Gauge("g")
	g.Set(1.5)
	g.Add(0.25)
	if g.Value() != 1.75 {
		t.Fatalf("gauge = %g, want 1.75", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	// Boundary values must bucket deterministically: 2^k starts the bucket
	// [2^k, 2^(k+1)).
	cases := []struct {
		v    float64
		want int
	}{
		{1, -histMinExp},         // [1, 2)
		{1.999, -histMinExp},     // still [1, 2)
		{2, -histMinExp + 1},     // [2, 4)
		{0.5, -histMinExp - 1},   // [0.5, 1)
		{1e-30, 0},               // underflow clamps to the first bucket
		{0, 0},                   // non-positive clamps too
		{-3, 0},                  //
		{math.NaN(), 0},          //
		{1e300, histBuckets - 1}, // overflow clamps to the last bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's lower edge must land in that bucket, and the upper
	// bound must be exclusive.
	for i := 1; i < histBuckets-1; i++ {
		lo := math.Ldexp(1, histMinExp+i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("lower edge of bucket %d (%g) bucketed to %d", i, lo, got)
		}
		if got := bucketOf(BucketUpperBound(i)); got != i+1 {
			t.Fatalf("upper bound of bucket %d bucketed to %d, want %d", i, got, i+1)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range []float64{1, 1.5, 3, 1024} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1029.5 {
		t.Fatalf("sum = %g", h.Sum())
	}
	s := r.Snapshot()
	hs, ok := s.Histograms["h"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Count != 4 || hs.Mean() != 1029.5/4 {
		t.Fatalf("snapshot count/mean = %d/%g", hs.Count, hs.Mean())
	}
	// 1 and 1.5 share the [1,2) bucket; 3 and 1024 have their own.
	if len(hs.Buckets) != 3 {
		t.Fatalf("buckets = %+v, want 3 entries", hs.Buckets)
	}
	if hs.Buckets[0].Count != 2 {
		t.Fatalf("first bucket count = %d, want 2", hs.Buckets[0].Count)
	}
}

func TestSnapshotOmitsZeroInstruments(t *testing.T) {
	r := NewRegistry()
	r.Counter("touched-but-zero")
	r.Gauge("zero")
	r.Histogram("empty")
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("zero-valued instruments leaked into snapshot: %s", s)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("n").Add(3)
	a.Gauge("t").Add(1.5)
	a.Histogram("h").Observe(1)
	a.Histogram("h").Observe(100)

	b := NewRegistry()
	b.Counter("n").Add(4)
	b.Counter("only-b").Inc()
	b.Gauge("t").Add(0.5)
	b.Histogram("h").Observe(1.25)

	m := a.Snapshot().Merge(b.Snapshot())
	if m.Counter("n") != 7 || m.Counter("only-b") != 1 {
		t.Fatalf("merged counters: %+v", m.Counters)
	}
	if m.Gauge("t") != 2 {
		t.Fatalf("merged gauge = %g", m.Gauge("t"))
	}
	h := m.Histograms["h"]
	if h.Count != 3 || h.Sum != 102.25 {
		t.Fatalf("merged histogram count/sum = %d/%g", h.Count, h.Sum)
	}
	// 1 and 1.25 share [1,2): merged bucketwise.
	if len(h.Buckets) != 2 || h.Buckets[0].Count != 2 {
		t.Fatalf("merged buckets: %+v", h.Buckets)
	}
	// Merge must not mutate its inputs.
	sa := a.Snapshot()
	if sa.Counter("n") != 3 || sa.Histograms["h"].Count != 2 {
		t.Fatal("merge mutated its receiver's source")
	}
	// Merge with the empty snapshot is identity.
	id := sa.Merge(Snapshot{})
	if id.Counter("n") != 3 || len(id.Histograms["h"].Buckets) != len(sa.Histograms["h"].Buckets) {
		t.Fatal("identity merge changed the snapshot")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("events").Add(42)
	r.Gauge("seconds").Add(0.125)
	r.Histogram("wall").Observe(1e300) // lands in the capped overflow bucket
	s := r.Snapshot()
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("events") != 42 || back.Gauge("seconds") != 0.125 {
		t.Fatalf("round trip lost values: %s", back)
	}
	if back.Histograms["wall"].Count != 1 {
		t.Fatalf("round trip lost histogram: %s", back)
	}
}

// TestNilRegistryRecordsNothing pins the silent registry: a nil *Registry
// hands out nil instruments whose methods do nothing, and snapshots empty.
func TestNilRegistryRecordsNothing(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out instruments: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(4)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments read %d %g %d %g, want zeros", c.Value(), g.Value(), h.Count(), h.Sum())
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("nil registry snapshot = %+v, want empty", s)
	}
}

// TestConcurrentRecording exercises every instrument from many goroutines;
// run under -race this is the registry's thread-safety proof.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(i%7) + 0.5)
				if i%100 == 0 {
					_ = r.Snapshot() // snapshots race with recording by design
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("c") != workers*per {
		t.Fatalf("counter = %d, want %d", s.Counter("c"), workers*per)
	}
	if s.Gauge("g") != workers*per {
		t.Fatalf("gauge = %g, want %d", s.Gauge("g"), workers*per)
	}
	if s.Histograms["h"].Count != workers*per {
		t.Fatalf("histogram count = %d", s.Histograms["h"].Count)
	}
}

// BenchmarkCounterParallel increments one Counter from every P at once: the
// single atomic serialises every increment through one cache line (W5/W9
// in miniature), the cost the daemon's request counters pay per request.
func BenchmarkCounterParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if c.Value() != int64(b.N) {
		b.Fatalf("count = %d, want %d", c.Value(), b.N)
	}
}
