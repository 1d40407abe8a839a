package core

import (
	"tenways/internal/collective"
	"tenways/internal/kernels"
	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/pgas"
)

// StencilResult is the outcome of one integrated stencil campaign.
type StencilResult struct {
	Seconds   float64
	Joules    float64
	Steps     int
	WireBytes int64
}

// StepsPerJoule returns the campaign's science-per-joule metric.
func (r StencilResult) StepsPerJoule() float64 {
	if r.Joules == 0 {
		return 0
	}
	return float64(r.Steps) / r.Joules
}

// StencilCampaign simulates `steps` sweeps of an n×n Jacobi grid
// row-block-decomposed over p ranks, with the communication and
// synchronisation stack chosen wholesale:
//
//   - wasteful: re-fetch the neighbour's whole block every step (W2),
//     blocking transfers with no overlap (W6), and a flat central barrier
//     after every step (W3).
//   - remedied: boundary rows only, split-phase transfers overlapped with
//     the interior sweep, and no global barrier (neighbour signals carry
//     the dependency).
//
// This is the integrated experiment behind T5, F11 and F12: individual
// wastes compound, so the stacks separate far more than any single mode.
//
// reg receives the run's metrics; nil records nothing.
func StencilCampaign(reg *obs.Registry, spec *machine.Spec, p, gridN, steps int, wasteful bool) (StencilResult, error) {
	hm := kernels.HaloModel{N: gridN, P: p}
	words := hm.HaloWords() / 2
	if wasteful {
		words = hm.WastefulWords() / 2
	}
	if words == 0 {
		words = 1
	}
	w := pgas.NewWorld(p, spec, nil, nil)
	w.SetObs(reg)
	makespan, err := w.Run(func(r *pgas.Rank) {
		comm := collective.New(r)
		id := r.ID()
		var synced int64
		for s := 0; s < steps; s++ {
			expect := int64(0)
			var h1, h2 *pgas.Handle
			if id > 0 {
				h1 = r.Transfer(id-1, words, "halo")
				expect++
			}
			if id < p-1 {
				h2 = r.Transfer(id+1, words, "halo")
				expect++
			}
			synced += expect
			if wasteful {
				// Block on our own sends, then wait for the neighbours,
				// then compute — nothing overlaps.
				if h1 != nil {
					h1.Wait()
				}
				if h2 != nil {
					h2.Wait()
				}
				r.WaitSignal("halo", synced)
				r.Compute(hm.StepFlopsPerRank(), hm.StepBytesPerRank())
				comm.BarrierCentral()
			} else {
				// Interior sweep overlaps the boundary exchange.
				r.Compute(hm.StepFlopsPerRank(), hm.StepBytesPerRank())
				r.WaitSignal("halo", synced)
			}
		}
	})
	if err != nil {
		return StencilResult{}, err
	}
	return StencilResult{
		Seconds:   makespan,
		Joules:    w.Meter().Total(),
		Steps:     steps,
		WireBytes: w.Stats().BytesSent,
	}, nil
}
