package kernels

import (
	"sort"

	"tenways/internal/sched"
	"tenways/internal/workload"
)

// SampleSort sorts xs in place using parallel sample sort: sample splitters,
// partition into one bucket per worker of p, sort the buckets on p,
// concatenate. It is the bulk-synchronous sorting workload of the
// integrated experiments.
func SampleSort(p *sched.Pool, xs []float64, seed uint64) {
	nw := p.Workers()
	if nw == 1 || len(xs) < 4*nw {
		sort.Float64s(xs)
		return
	}
	// Oversample: s·nw random elements, splitters at every s-th.
	const oversample = 16
	rng := workload.NewRand(seed)
	sample := make([]float64, oversample*nw)
	for i := range sample {
		sample[i] = xs[rng.Intn(len(xs))]
	}
	sort.Float64s(sample)
	splitters := make([]float64, nw-1)
	for i := range splitters {
		splitters[i] = sample[(i+1)*oversample]
	}
	// Partition into buckets.
	buckets := make([][]float64, nw)
	for _, x := range xs {
		b := sort.SearchFloat64s(splitters, x)
		buckets[b] = append(buckets[b], x)
	}
	// Sort buckets in parallel and write back.
	offsets := make([]int, nw+1)
	for i, b := range buckets {
		offsets[i+1] = offsets[i] + len(b)
	}
	p.ForEachChunked(nw, 1, func(i int) {
		sort.Float64s(buckets[i])
		copy(xs[offsets[i]:offsets[i+1]], buckets[i])
	})
}

// SortFlopsApprox returns an operation-count proxy for sorting n keys:
// n·log2(n) comparisons.
func SortFlopsApprox(n int) float64 {
	if n < 2 {
		return 0
	}
	lg := 0.0
	for m := n; m > 1; m >>= 1 {
		lg++
	}
	return float64(n) * lg
}
