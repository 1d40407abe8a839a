package core

import (
	"context"

	"fmt"
	"math"
	"sort"

	"tenways/internal/collective"
	"tenways/internal/kernels"
	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/pgas"
	"tenways/internal/report"
	"tenways/internal/workload"
)

// SortResult is the outcome of one distributed-sort campaign.
type SortResult struct {
	Seconds   float64
	Joules    float64
	Keys      int
	WireBytes int64
	Messages  int64
}

// KeysPerJoule returns the campaign's science-per-joule metric.
func (r SortResult) KeysPerJoule() float64 {
	if r.Joules == 0 {
		return 0
	}
	return float64(r.Keys) / r.Joules
}

// SortCampaign simulates a distributed sample sort of perRank keys per
// rank on p ranks: local sort, splitter broadcast, all-to-all personalised
// key exchange, local merge. Real keys move through the simulated network
// and global sortedness is verified, so the campaign is a correctness test
// of the whole pgas/collective stack as well as a cost model.
//
// The wasteful stack broadcasts splitters flat from rank 0, exchanges keys
// in 32-word chunks (W7), and central-barriers between phases (W3); the
// remedied stack uses the binomial broadcast, bulk exchange, and no extra
// barriers.
//
// reg receives the run's metrics; nil records nothing.
func SortCampaign(reg *obs.Registry, spec *machine.Spec, p, perRank int, wasteful bool) (SortResult, error) {
	w := pgas.NewWorld(p, spec, nil, nil)
	w.SetObs(reg)
	var firstErr error
	results := make([][]float64, p)
	makespan, err := w.Run(func(r *pgas.Rank) {
		c := collective.New(r)
		me := r.ID()
		rng := workload.NewRand(uint64(me)*0x9e3779b9 + 2009)
		keys := make([]float64, perRank)
		for i := range keys {
			keys[i] = rng.Float64()
		}
		// Phase 1: local sort.
		sort.Float64s(keys)
		r.Compute(kernels.SortFlopsApprox(perRank), float64(16*perRank))
		if wasteful {
			c.BarrierCentral()
		}
		// Phase 2: splitters. Rank 0 proposes uniform splitters (its view
		// of a sorted sample); everyone receives them.
		var splitters []float64
		if me == 0 {
			splitters = make([]float64, p-1)
			for i := range splitters {
				splitters[i] = float64(i+1) / float64(p)
			}
		} else {
			splitters = make([]float64, p-1)
		}
		if wasteful {
			splitters = c.BroadcastFlat(splitters)
			c.BarrierCentral()
		} else {
			splitters = c.BroadcastTree(splitters)
		}
		// Phase 3: partition and exchange.
		blocks := make([][]float64, p)
		for _, k := range keys {
			d := sort.SearchFloat64s(splitters, k)
			blocks[d] = append(blocks[d], k)
		}
		r.Compute(float64(perRank)*math.Log2(float64(p)+1), float64(8*perRank))
		chunk := 0
		if wasteful {
			chunk = 32
		}
		recv := c.AlltoallPersonalized(blocks, chunk)
		if wasteful {
			c.BarrierCentral()
		}
		// Phase 4: local merge.
		total := 0
		for _, b := range recv {
			total += len(b)
		}
		mine := make([]float64, 0, total)
		for _, b := range recv {
			mine = append(mine, b...)
		}
		sort.Float64s(mine)
		r.Compute(kernels.SortFlopsApprox(len(mine)), float64(16*len(mine)))
		results[me] = mine
	})
	if err != nil {
		return SortResult{}, err
	}
	// Verify global sortedness and conservation.
	total := 0
	last := -1.0
	for i := 0; i < p; i++ {
		for _, v := range results[i] {
			if v < last {
				firstErr = fmt.Errorf("core: sort campaign order violated at rank %d", i)
			}
			last = v
			total++
		}
	}
	if total != p*perRank {
		firstErr = fmt.Errorf("core: sort campaign lost keys: %d of %d", total, p*perRank)
	}
	if firstErr != nil {
		return SortResult{}, firstErr
	}
	st := w.Stats()
	return SortResult{
		Seconds:   makespan,
		Joules:    w.Meter().Total(),
		Keys:      total,
		WireBytes: st.BytesSent,
		Messages:  st.Messages,
	}, nil
}

// runF18 sweeps rank count for the distributed sort, wasteful versus
// remedied stack.
func runF18(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	perRank := 2048
	ps := []int{2, 4, 8, 16, 32}
	if cfg.Quick {
		perRank = 256
		ps = []int{2, 8}
	}
	f := report.NewFigure("F18",
		fmt.Sprintf("distributed sample sort of %d keys/rank vs ranks", perRank),
		"ranks", "seconds / keys-per-joule")
	for _, p := range ps {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		f.Xs = append(f.Xs, float64(p))
	}
	var wasteful, remedied, keysJW, keysJR []float64
	for _, p := range ps {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		wres, err := SortCampaign(cfg.Obs, spec, p, perRank, true)
		if err != nil {
			return Output{}, err
		}
		rres, err := SortCampaign(cfg.Obs, spec, p, perRank, false)
		if err != nil {
			return Output{}, err
		}
		wasteful = append(wasteful, wres.Seconds)
		remedied = append(remedied, rres.Seconds)
		keysJW = append(keysJW, wres.KeysPerJoule())
		keysJR = append(keysJR, rres.KeysPerJoule())
	}
	f.AddSeries("wasteful-seconds", wasteful)
	f.AddSeries("remedied-seconds", remedied)
	f.AddSeries("wasteful-keys/J", keysJW)
	f.AddSeries("remedied-keys/J", keysJR)
	return Output{Figure: f}, nil
}
