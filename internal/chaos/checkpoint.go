package chaos

import (
	"fmt"

	"tenways/internal/collective"
	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/pgas"
	"tenways/internal/trace"
)

// CheckpointConfig parameterises the checkpoint/replay campaign: a
// barrier-synchronised iterative kernel of Steps steps of StepSec busy
// seconds each, writing a coordinated checkpoint (CkptSec per rank) every
// Interval steps (0 disables checkpointing). A scripted failure kills
// FailRank as it executes step FailStep (−1 for a failure-free run): the
// step's work is lost, the rank pays RestartSec of down-time while the
// others wait at the barrier, and every rank rolls back to the last
// committed checkpoint and replays from there. Sweeping Interval traces the
// classic checkpoint-period trade-off: short intervals buy cheap recovery
// with constant overhead, long intervals gamble on replay.
type CheckpointConfig struct {
	Ranks      int
	Steps      int
	StepSec    float64
	Interval   int
	CkptSec    float64
	FailStep   int
	FailRank   int
	RestartSec float64
	Obs        *obs.Registry // nil records nothing
}

// CheckpointResult is the campaign outcome.
type CheckpointResult struct {
	Makespan    float64
	Checkpoints int // coordinated checkpoints committed
	ReplaySteps int // steps re-executed after the rollback
	Breakdown   trace.Breakdown
}

// RunCheckpointCampaign executes the campaign on the machine.
func RunCheckpointCampaign(spec *machine.Spec, cfg CheckpointConfig) (CheckpointResult, error) {
	p := cfg.Ranks
	if p < 2 || cfg.Steps < 1 || cfg.StepSec <= 0 {
		return CheckpointResult{}, fmt.Errorf("chaos: checkpoint campaign needs ≥2 ranks, ≥1 step and a positive step cost")
	}
	if cfg.FailStep >= cfg.Steps {
		return CheckpointResult{}, fmt.Errorf("chaos: failure step %d outside the %d-step run", cfg.FailStep, cfg.Steps)
	}
	if cfg.FailStep >= 0 && (cfg.FailRank < 0 || cfg.FailRank >= p) {
		return CheckpointResult{}, fmt.Errorf("chaos: failing rank %d outside world of %d", cfg.FailRank, p)
	}
	w := pgas.NewWorld(p, spec, nil, nil)
	w.SetObs(cfg.Obs)
	var checkpoints, replay int
	makespan, err := w.Run(func(r *pgas.Rank) {
		id := r.ID()
		comm := collective.New(r)
		s, lastCkpt := 0, 0
		failed := false
		for s < cfg.Steps {
			r.Lapse(cfg.StepSec)
			if !failed && s == cfg.FailStep {
				// The step's work dies with the rank. The survivors discover
				// the failure at the barrier and wait out the restart, then
				// everyone resumes from the last committed checkpoint.
				failed = true
				if id == cfg.FailRank {
					r.Idle(cfg.RestartSec)
				}
				comm.BarrierTree()
				if id == 0 {
					replay = s - lastCkpt + 1
				}
				s = lastCkpt
				continue
			}
			comm.BarrierTree()
			s++
			if cfg.Interval > 0 && s%cfg.Interval == 0 && s < cfg.Steps {
				r.Lapse(cfg.CkptSec)
				comm.BarrierTree() // commit is coordinated
				lastCkpt = s
				if id == 0 {
					checkpoints++
				}
			}
		}
	})
	if err != nil {
		return CheckpointResult{}, err
	}
	reg := w.Obs()
	reg.Counter("chaos.checkpoints").Add(int64(checkpoints))
	reg.Counter("chaos.replay_steps").Add(int64(replay))
	return CheckpointResult{
		Makespan:    makespan,
		Checkpoints: checkpoints,
		ReplaySteps: replay,
		Breakdown:   w.Breakdown(makespan),
	}, nil
}
