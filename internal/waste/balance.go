package waste

import (
	"fmt"

	"tenways/internal/machine"
	"tenways/internal/sched"
	"tenways/internal/workload"
)

// StaticMakespan partitions task costs (seconds) into p contiguous blocks
// and returns the makespan and per-worker busy times — the wasteful W4
// schedule.
func StaticMakespan(costs []float64, p int) (makespan float64, busy []float64) {
	busy = make([]float64, p)
	n := len(costs)
	for w := 0; w < p; w++ {
		lo := w * n / p
		hi := (w + 1) * n / p
		for _, c := range costs[lo:hi] {
			busy[w] += c
		}
		if busy[w] > makespan {
			makespan = busy[w]
		}
	}
	return makespan, busy
}

// scheduleEnergy converts a schedule into joules on the machine: busy time
// at busy watts, the rest of the makespan at idle watts, per worker.
func scheduleEnergy(spec *machine.Spec, makespan float64, busy []float64) float64 {
	j := 0.0
	for _, b := range busy {
		j += spec.BusyEnergyJ(b) + spec.IdleEnergyJ(makespan-b)
	}
	return j
}

// Imbalance runs the W4 demonstrator at the given Zipf skew exponent on p
// workers, returning both schedules. Costs are sorted heavy-first — the
// layout of real applications whose expensive iterations cluster spatially
// (refined mesh regions, dense matrix rows) — so a static block partition
// hands one worker the giants. Shared by RunW4 and figure F4.
func Imbalance(spec *machine.Spec, p int, skew float64) (Outcome, error) {
	const nTasks = 4096
	meanSec := 1e-4
	costs := workload.NewTaskDist(2009).ZipfSorted(nTasks, skew, meanSec)

	mkS, busyS := StaticMakespan(costs, p)
	// Dynamic: list scheduling onto the earliest-free worker, the
	// behaviour of a central task queue or work stealing.
	mkD, busyD := sched.PredictChunked(costs, p, 1, 0)
	ideal := 0.0
	for _, c := range costs {
		ideal += c
	}
	ideal /= float64(p)
	return Outcome{
		Wasteful: Result{
			Seconds: mkS,
			Joules:  scheduleEnergy(spec, mkS, busyS),
			Detail:  fmt.Sprintf("static, %.0f%% efficiency", 100*ideal/mkS),
		},
		Remedied: Result{
			Seconds: mkD,
			Joules:  scheduleEnergy(spec, mkD, busyD),
			Detail:  fmt.Sprintf("dynamic, %.0f%% efficiency", 100*ideal/mkD),
		},
	}, nil
}

// RunW4 contrasts static and dynamic scheduling of heavily skewed tasks on
// one node's worth of cores.
func RunW4(spec *machine.Spec) (Outcome, error) {
	p := spec.CoresPerNode
	if p < 2 {
		p = 2
	}
	if p > 64 {
		p = 64
	}
	return Imbalance(spec, p, 1.4)
}
