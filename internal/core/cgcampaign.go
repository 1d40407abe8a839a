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
)

// CGCampaignResult is the outcome of one modeled distributed CG run.
type CGCampaignResult struct {
	Seconds    float64
	Joules     float64
	Iterations int
	Allreduces int64
}

// SecondsPerIteration returns the average modeled iteration time.
func (r CGCampaignResult) SecondsPerIteration() float64 {
	if r.Iterations == 0 {
		return 0
	}
	return r.Seconds / float64(r.Iterations)
}

// CGCampaign models `iters` iterations of distributed conjugate gradient
// on a gridN×gridN Laplacian, row-block decomposed over p ranks (power of
// two): per iteration a halo exchange feeds the SpMV and the two inner
// products cost allreduces. sStep > 1 selects the communication-avoiding
// s-step formulation: one allreduce round (of 2·s fused scalars) every
// sStep iterations, at ~1.5× the local flops — Yelick's communication-
// avoiding Krylov trade, which wins once allreduce latency dominates.
//
// reg receives the run's metrics; nil records nothing.
func CGCampaign(reg *obs.Registry, spec *machine.Spec, p, gridN, iters, sStep int) (CGCampaignResult, error) {
	if p&(p-1) != 0 {
		return CGCampaignResult{}, fmt.Errorf("core: CGCampaign needs power-of-two ranks, got %d", p)
	}
	if sStep < 1 {
		sStep = 1
	}
	model := kernels.CGCommModel{GridN: gridN, P: p, S: sStep}
	words := model.HaloWordsPerIteration() / 2
	if words == 0 {
		words = 1
	}
	w := pgas.NewWorld(p, spec, nil, nil)
	w.SetObs(reg)
	scalars := make([]float64, 2*sStep)
	var innerErr error
	makespan, err := w.Run(func(r *pgas.Rank) {
		c := collective.New(r)
		id := r.ID()
		var synced int64
		for it := 0; it < iters; it++ {
			// Halo exchange for the SpMV.
			expect := int64(0)
			if id > 0 {
				r.Transfer(id-1, words, "halo")
				expect++
			}
			if id < p-1 {
				r.Transfer(id+1, words, "halo")
				expect++
			}
			synced += expect
			// Local SpMV + vector ops overlap the halo's flight.
			r.Compute(model.FlopsPerIteration(), model.FlopsPerIteration()*1.2)
			r.WaitSignal("halo", synced)
			// Inner products: standard CG reduces twice per iteration;
			// s-step fuses 2·s scalars into one round every s iterations.
			if sStep == 1 {
				for k := 0; k < 2; k++ {
					if _, err := c.AllreduceRecursiveDoubling(scalars[:1], collective.Sum); err != nil {
						innerErr = err
						return
					}
				}
			} else if (it+1)%sStep == 0 {
				if _, err := c.AllreduceRecursiveDoubling(scalars, collective.Sum); err != nil {
					innerErr = err
					return
				}
			}
		}
	})
	if err != nil {
		return CGCampaignResult{}, err
	}
	if innerErr != nil {
		return CGCampaignResult{}, innerErr
	}
	return CGCampaignResult{
		Seconds:    makespan,
		Joules:     w.Meter().Total(),
		Iterations: iters,
		Allreduces: w.Stats().Sends, // every allreduce message is a Send
	}, nil
}

// runF19 sweeps rank count for standard versus s-step CG.
func runF19(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	gridN, iters := 2048, 20
	ps := []int{2, 4, 8, 16, 32, 64, 128}
	if cfg.Quick {
		gridN, iters = 512, 8
		ps = []int{2, 8, 32}
	}
	f := report.NewFigure("F19",
		fmt.Sprintf("distributed CG on a %d^2 Laplacian: time/iteration vs ranks", gridN),
		"ranks", "seconds-per-iteration")
	var std, ca []float64
	for _, p := range ps {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		f.Xs = append(f.Xs, float64(p))
		s, err := CGCampaign(cfg.Obs, spec, p, gridN, iters, 1)
		if err != nil {
			return Output{}, err
		}
		c, err := CGCampaign(cfg.Obs, spec, p, gridN, iters, 4)
		if err != nil {
			return Output{}, err
		}
		std = append(std, s.SecondsPerIteration())
		ca = append(ca, c.SecondsPerIteration())
	}
	f.AddSeries("standard-cg", std)
	f.AddSeries("s-step-cg-s4", ca)
	return Output{Figure: f}, nil
}
