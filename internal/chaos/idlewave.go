package chaos

import (
	"fmt"

	"tenways/internal/collective"
	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/pgas"
	"tenways/internal/trace"
)

// Stack selects the synchronisation structure of an idle-wave run — the
// experimental variable the Afzal/Hager/Wellein papers show governs how an
// injected delay propagates and decays.
type Stack int

// The synchronisation stacks.
const (
	// NeighborBlocking is bulk-synchronous halo exchange: each step ends
	// by waiting for the current step's neighbour messages. A delay
	// propagates one neighbour offset per step, undamped.
	NeighborBlocking Stack = iota
	// NeighborAsync is split-phase halo exchange with a one-step window:
	// step s waits only for step s−1's messages, so each hop of the wave
	// is damped by one step's compute worth of slack.
	NeighborAsync
	// FlatBarrier ends every step with the central flat barrier: a delay
	// reaches every rank within one step at full amplitude.
	FlatBarrier
	// TreeBarrier ends every step with the binomial-tree barrier: cheaper
	// than flat, but still blocking — the wave is still global and
	// undamped.
	TreeBarrier
	// NonBlockingBarrier brackets each step's compute in a split-phase
	// tree barrier (BarrierBegin before the compute, BarrierEnd after):
	// the compute overlaps the barrier, absorbing up to one step's
	// compute worth of injected delay. Like real MPI non-blocking
	// collectives, progress is made only at the call sites, so the
	// overlap benefits the tree's leaf ranks; internal ranks combine in
	// BarrierEnd and still relay what they receive late.
	NonBlockingBarrier
)

// String names the stack.
func (s Stack) String() string {
	switch s {
	case NeighborBlocking:
		return "neighbor-blocking"
	case NeighborAsync:
		return "neighbor-async"
	case FlatBarrier:
		return "flat-barrier"
	case TreeBarrier:
		return "tree-barrier"
	case NonBlockingBarrier:
		return "nonblocking-barrier"
	default:
		return fmt.Sprintf("stack(%d)", int(s))
	}
}

// IdleWaveConfig parameterises one idle-wave run: an iterative kernel of
// Steps steps on Ranks ranks, each step Compute seconds of busy time
// followed by the chosen synchronisation stack. Neighbour stacks exchange
// Words-word messages with the ranks at ±each offset (open chain, no
// wrap-around, like the idle-wave papers' setups); long offsets are how
// long-range communication accelerates the wave.
type IdleWaveConfig struct {
	Ranks   int
	Steps   int
	Compute float64
	Words   int
	Offsets []int // neighbour offsets for the neighbour stacks; default {1}
	Stack   Stack
	Cost    pgas.CostModel // nil = topology-free LogGP
	Chaos   *Scenario      // nil = quiet run
	Obs     *obs.Registry  // nil records nothing
}

func (c IdleWaveConfig) offsets() []int {
	if len(c.Offsets) == 0 {
		return []int{1}
	}
	return c.Offsets
}

// IdleWaveResult is one run's outcome: per-rank, per-step finish times in
// virtual seconds, plus the makespan and the world's attribution breakdown
// (which carries injected time in the Noise category).
type IdleWaveResult struct {
	Makespan  float64
	Finish    [][]float64 // [rank][step]
	Breakdown trace.Breakdown
}

// RunIdleWave executes one idle-wave experiment on the machine.
func RunIdleWave(spec *machine.Spec, cfg IdleWaveConfig) (IdleWaveResult, error) {
	p, steps := cfg.Ranks, cfg.Steps
	if p < 2 || steps < 1 {
		return IdleWaveResult{}, fmt.Errorf("chaos: idle wave needs ≥2 ranks and ≥1 step, got %d/%d", p, steps)
	}
	words := cfg.Words
	if words < 1 {
		words = 1
	}
	offs := cfg.offsets()
	w := pgas.NewWorld(p, spec, cfg.Cost, nil)
	w.SetObs(cfg.Obs)
	if cfg.Chaos != nil {
		cfg.Chaos.Arm(w)
	}
	finish := make([][]float64, p)
	for i := range finish {
		finish[i] = make([]float64, steps)
	}
	makespan, err := w.Run(func(r *pgas.Rank) {
		id := r.ID()
		comm := collective.New(r)
		// nbrs is how many messages this rank both sends and receives per
		// step (offsets are symmetric on an open chain).
		nbrs := 0
		for _, off := range offs {
			if id-off >= 0 {
				nbrs++
			}
			if id+off < p {
				nbrs++
			}
		}
		exchange := func(step int) {
			for _, off := range offs {
				if id-off >= 0 {
					r.Transfer(id-off, words, "halo")
				}
				if id+off < p {
					r.Transfer(id+off, words, "halo")
				}
			}
		}
		var expected int64
		for s := 0; s < steps; s++ {
			switch cfg.Stack {
			case NeighborBlocking:
				r.Lapse(cfg.Compute)
				exchange(s)
				expected += int64(nbrs)
				r.WaitSignal("halo", expected)
			case NeighborAsync:
				r.Lapse(cfg.Compute)
				exchange(s)
				// Wait only for the previous step's halo: one step of
				// slack absorbs injected delay hop by hop.
				r.WaitSignal("halo", expected)
				expected += int64(nbrs)
			case FlatBarrier:
				r.Lapse(cfg.Compute)
				comm.BarrierCentral()
			case TreeBarrier:
				r.Lapse(cfg.Compute)
				comm.BarrierTree()
			case NonBlockingBarrier:
				comm.BarrierBegin()
				r.Lapse(cfg.Compute)
				comm.BarrierEnd()
			default:
				//lint:ignore sprintf unreachable default arm: panic message formatting, not per-element work
				panic(fmt.Sprintf("chaos: unknown stack %d", cfg.Stack))
			}
			finish[id][s] = r.Now()
		}
	})
	if err != nil {
		return IdleWaveResult{}, err
	}
	return IdleWaveResult{Makespan: makespan, Finish: finish, Breakdown: w.Breakdown(makespan)}, nil
}

// IdleWaveDelta runs the configuration twice — quiet, then with the given
// scenario — and returns the noisy run, the quiet run, and the per-rank,
// per-step finish-time deltas (noisy − quiet, ≥ 0 up to float noise).
func IdleWaveDelta(spec *machine.Spec, cfg IdleWaveConfig, sc *Scenario) (noisy, quiet IdleWaveResult, delta [][]float64, err error) {
	base := cfg
	base.Chaos = nil
	quiet, err = RunIdleWave(spec, base)
	if err != nil {
		return
	}
	pert := cfg
	pert.Chaos = sc
	noisy, err = RunIdleWave(spec, pert)
	if err != nil {
		return
	}
	delta = make([][]float64, len(quiet.Finish))
	for i := range delta {
		delta[i] = make([]float64, len(quiet.Finish[i]))
		for s := range delta[i] {
			delta[i][s] = noisy.Finish[i][s] - quiet.Finish[i][s]
		}
	}
	return
}

// ArrivalTimes extracts, for each rank, the quiet-run virtual time at which
// the wavefront (first delta over threshold) arrives, or −1 if it never
// does — the seconds-domain view whose slope is the propagation speed.
func ArrivalTimes(quiet IdleWaveResult, delta [][]float64, threshold float64) []float64 {
	out := make([]float64, len(delta))
	for r, row := range delta {
		out[r] = -1
		for s, d := range row {
			if d > threshold {
				out[r] = quiet.Finish[r][s]
				break
			}
		}
	}
	return out
}

// ResidualDelay returns each rank's final finish-time delta — the wave
// amplitude that survived to the end of the run.
func ResidualDelay(delta [][]float64) []float64 {
	out := make([]float64, len(delta))
	for r, row := range delta {
		out[r] = row[len(row)-1]
	}
	return out
}
