package core

import (
	"context"

	"fmt"

	"tenways/internal/collective"
	"tenways/internal/kernels"
	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/pgas"
	"tenways/internal/report"
	"tenways/internal/workload"
)

// BFSResult is the outcome of one distributed BFS campaign.
type BFSResult struct {
	Seconds   float64
	Joules    float64
	Edges     int
	Levels    int
	WireBytes int64
}

// TEPS returns traversed edges per second, the Graph500 metric.
func (r BFSResult) TEPS() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.Edges) / r.Seconds
}

// BFSCampaign simulates a level-synchronous distributed breadth-first
// search of an R-MAT graph block-partitioned over p ranks, from vertex 0.
// Each level every rank expands its local slice of the frontier, sends
// discovered vertices to their owners via an all-to-all personalised
// exchange, and the ranks agree on termination with an allreduce of the
// next frontier's size. Real vertex ids move through the simulated
// network; the resulting distance vector is verified against the
// sequential reference, so this campaign is an end-to-end correctness test
// of pgas + collective under an irregular workload.
//
// The wasteful stack chunks the exchange into 16-word messages (W7), uses
// the flat allreduce (serialised at rank 0), and inserts a central barrier
// per level (W3); the remedied stack sends bulk and uses recursive
// doubling with no extra barrier (p must be a power of two for it).
//
// reg receives the run's metrics; nil records nothing.
func BFSCampaign(reg *obs.Registry, spec *machine.Spec, p int, g *workload.Graph, wasteful bool) (BFSResult, error) {
	if !wasteful && p&(p-1) != 0 {
		return BFSResult{}, fmt.Errorf("core: remedied BFS needs power-of-two ranks, got %d", p)
	}
	n := g.N
	if n%p != 0 {
		// The floor-arithmetic owner map is only consistent with the block
		// bounds when the partition is exact.
		return BFSResult{}, fmt.Errorf("core: BFS needs p (%d) to divide the vertex count (%d)", p, n)
	}
	owner := func(v int) int { return v * p / n }
	lo := func(rk int) int { return rk * n / p }

	w := pgas.NewWorld(p, spec, nil, nil)
	w.SetObs(reg)
	dist := make([][]int, p) // per-rank local distance slices
	levels := 0
	var innerErr error
	makespan, err := w.Run(func(r *pgas.Rank) {
		c := collective.New(r)
		me := r.ID()
		myLo, myHi := lo(me), lo(me+1)
		local := make([]int, myHi-myLo)
		for i := range local {
			local[i] = -1
		}
		var frontier []int // local vertices in the current level
		if owner(0) == me {
			local[0-myLo] = 0
			frontier = append(frontier, 0)
		}
		for level := 1; ; level++ {
			// Expand: bucket discovered neighbours by owner.
			blocks := make([][]float64, p)
			edges := 0
			for _, u := range frontier {
				for _, v := range g.Adj[u] {
					blocks[owner(v)] = append(blocks[owner(v)], float64(v))
					edges++
				}
			}
			r.Compute(float64(4*edges+8*len(frontier)), float64(16*edges))
			chunk := 0
			if wasteful {
				chunk = 16
			}
			recv := c.AlltoallPersonalized(blocks, chunk)
			// Absorb: claim unvisited local vertices.
			frontier = frontier[:0]
			for _, blk := range recv {
				for _, fv := range blk {
					v := int(fv)
					if local[v-myLo] == -1 {
						local[v-myLo] = level
						frontier = append(frontier, v)
					}
				}
			}
			r.Compute(float64(4*len(frontier)+1), float64(8*len(frontier)))
			// Terminate when the global frontier is empty.
			count := []float64{float64(len(frontier))}
			if wasteful {
				count = c.AllreduceFlat(count, collective.Sum)
				c.BarrierCentral()
			} else {
				out, err := c.AllreduceRecursiveDoubling(count, collective.Sum)
				if err != nil {
					innerErr = err
					return
				}
				count = out
			}
			if count[0] == 0 {
				if me == 0 {
					levels = level
				}
				break
			}
		}
		dist[me] = local
	})
	if err != nil {
		return BFSResult{}, err
	}
	if innerErr != nil {
		return BFSResult{}, innerErr
	}
	// Verify against the sequential reference.
	want := kernels.BFS(g, 0)
	reached := 0
	for rk := 0; rk < p; rk++ {
		base := lo(rk)
		for i, d := range dist[rk] {
			if d != want[base+i] {
				return BFSResult{}, fmt.Errorf("core: BFS mismatch at vertex %d: %d vs %d",
					base+i, d, want[base+i])
			}
			if d >= 0 {
				reached++
			}
		}
	}
	_ = reached
	st := w.Stats()
	return BFSResult{
		Seconds:   makespan,
		Joules:    w.Meter().Total(),
		Edges:     g.NumEdges(),
		Levels:    levels,
		WireBytes: st.BytesSent,
	}, nil
}

// runF21 sweeps rank count for the distributed BFS on an R-MAT graph.
func runF21(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	scale, edgeFactor := 12, 8
	ps := []int{2, 4, 8, 16, 32}
	if cfg.Quick {
		scale = 9
		ps = []int{2, 8}
	}
	g := workload.RMAT(2009, scale, edgeFactor)
	f := report.NewFigure("F21",
		fmt.Sprintf("distributed BFS on R-MAT scale %d (%d edges) vs ranks", scale, g.NumEdges()),
		"ranks", "seconds / MTEPS")
	var wSecs, rSecs, wTeps, rTeps []float64
	for _, p := range ps {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		f.Xs = append(f.Xs, float64(p))
		wres, err := BFSCampaign(cfg.Obs, spec, p, g, true)
		if err != nil {
			return Output{}, err
		}
		rres, err := BFSCampaign(cfg.Obs, spec, p, g, false)
		if err != nil {
			return Output{}, err
		}
		wSecs = append(wSecs, wres.Seconds)
		rSecs = append(rSecs, rres.Seconds)
		wTeps = append(wTeps, wres.TEPS()/1e6)
		rTeps = append(rTeps, rres.TEPS()/1e6)
	}
	f.AddSeries("wasteful-seconds", wSecs)
	f.AddSeries("remedied-seconds", rSecs)
	f.AddSeries("wasteful-MTEPS", wTeps)
	f.AddSeries("remedied-MTEPS", rTeps)
	return Output{Figure: f}, nil
}
