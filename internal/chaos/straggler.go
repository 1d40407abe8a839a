package chaos

import (
	"fmt"

	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/pgas"
	"tenways/internal/trace"
)

// StragglerConfig parameterises the straggler-mitigation campaign: Tasks
// equal-cost tasks of TaskSec busy seconds each, executed on Ranks ranks
// under one of two decompositions:
//
//   - static: every rank owns Tasks/Ranks tasks up front. A straggler
//     stretches its whole block — the makespan inherits the full slowdown.
//   - dynamic (over-decomposition with rebalance): rank 0 coordinates; the
//     remaining ranks pull one task at a time over the network, so a
//     straggler naturally receives fewer tasks and the rest rebalance
//     around it.
type StragglerConfig struct {
	Ranks   int
	Tasks   int
	TaskSec float64
	Dynamic bool
	Chaos   *Scenario
	Obs     *obs.Registry // nil records nothing
}

// StragglerResult is the campaign outcome.
type StragglerResult struct {
	Makespan  float64
	TasksDone []int // per-rank tasks completed
	Breakdown trace.Breakdown
}

// RunStragglerCampaign executes the campaign on the machine.
func RunStragglerCampaign(spec *machine.Spec, cfg StragglerConfig) (StragglerResult, error) {
	p := cfg.Ranks
	if p < 2 {
		return StragglerResult{}, fmt.Errorf("chaos: straggler campaign needs ≥2 ranks, got %d", p)
	}
	if cfg.Tasks < 1 || cfg.TaskSec <= 0 {
		return StragglerResult{}, fmt.Errorf("chaos: straggler campaign needs tasks and a positive task cost")
	}
	w := pgas.NewWorld(p, spec, nil, nil)
	w.SetObs(cfg.Obs)
	if cfg.Chaos != nil {
		cfg.Chaos.Arm(w)
	}
	done := make([]int, p)
	var makespan float64
	var err error
	if !cfg.Dynamic {
		makespan, err = w.Run(func(r *pgas.Rank) {
			id := r.ID()
			lo := id * cfg.Tasks / p
			hi := (id + 1) * cfg.Tasks / p
			for t := lo; t < hi; t++ {
				r.Lapse(cfg.TaskSec)
				done[id]++
			}
		})
	} else {
		makespan, err = w.Run(func(r *pgas.Rank) {
			id := r.ID()
			if id == 0 {
				// Coordinator: grant tasks one at a time until the pool is
				// drained, then send every worker a stop token.
				for granted, stopped := 0, 0; stopped < p-1; {
					req := r.Recv("req")
					worker := int(req[0])
					if granted < cfg.Tasks {
						granted++
						r.Send(worker, "task", []float64{1})
					} else {
						stopped++
						r.Send(worker, "task", []float64{-1})
					}
				}
				return
			}
			for {
				r.Send(0, "req", []float64{float64(id)})
				if grant := r.Recv("task"); grant[0] < 0 {
					return
				}
				r.Lapse(cfg.TaskSec)
				done[id]++
			}
		})
	}
	if err != nil {
		return StragglerResult{}, err
	}
	return StragglerResult{
		Makespan:  makespan,
		TasksDone: done,
		Breakdown: w.Breakdown(makespan),
	}, nil
}
