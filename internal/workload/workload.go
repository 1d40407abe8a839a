package workload

import (
	"math"
	"sort"
)

// TaskDist generates per-task cost vectors for the imbalance experiments.
type TaskDist struct {
	rng *Rand
}

// NewTaskDist creates a distribution source with the given seed.
func NewTaskDist(seed uint64) *TaskDist { return &TaskDist{rng: NewRand(seed)} }

// Zipf returns n task costs following a Zipf-like power law with exponent
// s >= 0 (s = 0 is uniform), scaled so the mean equals mean. Costs are
// assigned in random order so static blocks still see skew.
func (d *TaskDist) Zipf(n int, s, mean float64) []float64 {
	out := make([]float64, n)
	sum := 0.0
	for i := range out {
		out[i] = 1 / math.Pow(float64(i+1), s)
		sum += out[i]
	}
	scale := mean * float64(n) / sum
	for i := range out {
		out[i] *= scale
	}
	d.rng.Shuffle(out)
	return out
}

// ZipfSorted is Zipf with the heavy tasks first — the adversarial layout
// for a static block partition (worker 0 gets all the giants).
func (d *TaskDist) ZipfSorted(n int, s, mean float64) []float64 {
	out := d.Zipf(n, s, mean)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// Graph is an adjacency-list graph.
type Graph struct {
	N   int
	Adj [][]int
}

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int {
	e := 0
	for _, a := range g.Adj {
		e += len(a)
	}
	return e
}

// RMAT generates a scale-free directed graph with 2^scale vertices and
// about edgeFactor·2^scale edges using the R-MAT recursive quadrant method
// (a=0.57, b=c=0.19), the Graph500 workload. Self-loops and duplicate
// edges are removed.
func RMAT(seed uint64, scale, edgeFactor int) *Graph {
	rng := NewRand(seed)
	n := 1 << scale
	type edge struct{ u, v int }
	seen := map[edge]bool{}
	g := &Graph{N: n, Adj: make([][]int, n)}
	target := edgeFactor * n
	for len(seen) < target {
		u, v := 0, 0
		for bit := n / 2; bit >= 1; bit /= 2 {
			p := rng.Float64()
			switch {
			case p < 0.57:
				// top-left: no bits set
			case p < 0.76:
				v += bit
			case p < 0.95:
				u += bit
			default:
				u += bit
				v += bit
			}
		}
		if u == v {
			continue
		}
		e := edge{u, v}
		if seen[e] {
			continue
		}
		seen[e] = true
		g.Adj[u] = append(g.Adj[u], v)
	}
	for _, a := range g.Adj {
		sort.Ints(a)
	}
	return g
}
