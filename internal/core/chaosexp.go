package core

import (
	"context"

	"fmt"

	"tenways/internal/chaos"
	"tenways/internal/netsim"
	"tenways/internal/report"
	"tenways/internal/trace"
)

// The chaos experiments (T8, F22–F25) probe the extrinsic wastes: injected
// noise, stragglers, and faults, plus the remedies the paper's discussion
// points at — slack-bearing synchronisation to absorb noise, dynamic
// rebalancing to route around stragglers, and checkpoint/replay to survive
// failure. All runs are seeded and deterministic.

// runT8 tabulates noise amplification: the same injected per-rank noise
// costs wildly different amounts of makespan depending on the
// synchronisation stack — blocking barriers turn local delays into global
// ones, while slack-bearing stacks absorb part of them.
func runT8(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	p, steps := 16, 40
	if cfg.Quick {
		p, steps = 8, 12
	}
	const compute = 1e-3
	seed := cfg.seed()
	stacks := []chaos.Stack{chaos.NeighborBlocking, chaos.FlatBarrier, chaos.NonBlockingBarrier}
	injectors := []struct {
		name string
		mk   func() chaos.Injector // fresh injector per run (they carry state)
	}{
		{"none", nil},
		{"uniform 10%", func() chaos.Injector { return chaos.NewJitter(chaos.Uniform, 0.1, seed, p) }},
		{"exponential 10%", func() chaos.Injector { return chaos.NewJitter(chaos.Exponential, 0.1, seed, p) }},
		{"bursty 10%", func() chaos.Injector { return chaos.NewJitter(chaos.Bursty, 0.1, seed, p) }},
		{"straggler r3 1.5x", func() chaos.Injector { return chaos.NewStraggler(3, 1.5) }},
	}
	run := func(stack chaos.Stack, mk func() chaos.Injector) (chaos.IdleWaveResult, error) {
		c := chaos.IdleWaveConfig{Ranks: p, Steps: steps, Compute: compute, Words: 16, Stack: stack, Obs: cfg.Obs}
		if mk != nil {
			c.Chaos = chaos.NewScenario().Add(mk())
		}
		return chaos.RunIdleWave(spec, c)
	}
	headers := []string{"injector"}
	for _, s := range stacks {
		headers = append(headers, s.String(), "ampl")
	}
	tbl := report.NewTable("T8",
		fmt.Sprintf("noise amplification by sync stack (P=%d, %d steps of %s; ampl = extra makespan per second of injected noise)",
			p, steps, report.FormatSeconds(compute)),
		headers...)
	quiet := map[chaos.Stack]float64{}
	for _, inj := range injectors {
		row := []string{inj.name}
		for _, stack := range stacks {
			if err := ctx.Err(); err != nil {
				return Output{}, err
			}
			res, err := run(stack, inj.mk)
			if err != nil {
				return Output{}, err
			}
			if inj.mk == nil {
				quiet[stack] = res.Makespan
				row = append(row, report.FormatSeconds(res.Makespan), "-")
				continue
			}
			// Mean injected seconds per rank, from the Noise attribution.
			injected := res.Breakdown.Of(trace.Noise).Seconds() / float64(p)
			ampl := 0.0
			if injected > 0 {
				ampl = (res.Makespan - quiet[stack]) / injected
			}
			row = append(row, report.FormatSeconds(res.Makespan), report.FormatFactor(ampl))
		}
		tbl.AddRow(row...)
	}
	return Output{Table: tbl}, nil
}

// runF22 plots idle-wave propagation: a single delay spike on rank 0 of a
// blocking halo chain travels through the neighbour dependencies at finite
// speed — one longest-offset hop per step — so longer-range communication
// and lower-diameter topologies accelerate the wave.
func runF22(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	p, steps := 24, 36
	if cfg.Quick {
		p, steps = 8, 16
	}
	const compute, words = 1e-3, 16
	dur := 3 * compute
	variants := []struct {
		name string
		offs []int
		topo netsim.Topology // nil = topology-free LogGP
	}{
		{"logGP d={1}", []int{1}, nil},
		{"logGP d={1,2}", []int{1, 2}, nil},
		{"logGP d={1,4}", []int{1, 4}, nil},
		{"ring d={1,2}", []int{1, 2}, netsim.NewRing(p)},
		{"dragonfly d={1,2}", []int{1, 2}, netsim.NewDragonfly(p, 4)},
	}
	f := report.NewFigure("F22",
		fmt.Sprintf("idle-wave propagation: one %s spike on rank 0, blocking halo chain (P=%d)",
			report.FormatSeconds(dur), p),
		"rank", "wavefront arrival (ms)")
	for r := 0; r < p; r++ {
		f.Xs = append(f.Xs, float64(r))
	}
	for _, v := range variants {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		c := chaos.IdleWaveConfig{
			Ranks: p, Steps: steps, Compute: compute, Words: words,
			Offsets: v.offs, Stack: chaos.NeighborBlocking,
			Obs: cfg.Obs,
		}
		if v.topo != nil {
			c.Cost = netsim.NewModel(spec.Net, v.topo)
		}
		sc := chaos.NewScenario().Add(chaos.NewSpike(0, 0, dur))
		_, quiet, delta, err := chaos.IdleWaveDelta(spec, c, sc)
		if err != nil {
			return Output{}, err
		}
		times := chaos.ArrivalTimes(quiet, delta, compute/10)
		ys := make([]float64, p)
		for r, t := range times {
			ys[r] = t * 1e3
		}
		f.AddSeries(v.name, ys)
	}
	return Output{Figure: f}, nil
}

// runF23 plots the wave amplitude that survives to the end of the run, per
// rank and synchronisation stack: blocking stacks relay the full spike to
// everyone, the async chain damps it one compute-time per hop, and the
// split-phase barrier shaves one overlapped compute off what the victim's
// delay costs the rest.
func runF23(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	p, steps := 16, 40
	if cfg.Quick {
		p, steps = 8, 24
	}
	const compute, words = 1e-3, 16
	dur := 2.5 * compute
	victim := p - 1 // a leaf of the binomial barrier tree, end of the chain
	stacks := []chaos.Stack{
		chaos.NeighborBlocking, chaos.NeighborAsync,
		chaos.FlatBarrier, chaos.TreeBarrier, chaos.NonBlockingBarrier,
	}
	f := report.NewFigure("F23",
		fmt.Sprintf("idle-wave decay: residual delay after a %s spike on rank %d (P=%d, %d steps)",
			report.FormatSeconds(dur), victim, p, steps),
		"rank", "residual delay (ms)")
	for r := 0; r < p; r++ {
		f.Xs = append(f.Xs, float64(r))
	}
	for _, stack := range stacks {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		sc := chaos.NewScenario().Add(chaos.NewSpike(victim, 0, dur))
		_, _, delta, err := chaos.IdleWaveDelta(spec, chaos.IdleWaveConfig{
			Ranks: p, Steps: steps, Compute: compute, Words: words, Stack: stack,
			Obs: cfg.Obs,
		}, sc)
		if err != nil {
			return Output{}, err
		}
		res := chaos.ResidualDelay(delta)
		ys := make([]float64, p)
		for r, d := range res {
			ys[r] = d * 1e3
		}
		f.AddSeries(stack.String(), ys)
	}
	return Output{Figure: f}, nil
}

// runF24 plots straggler mitigation: parallel efficiency versus the
// straggler's slowdown factor, static block partitioning against
// over-decomposed self-scheduling. Static inherits the full slowdown; the
// dynamic schedule routes work around the slow rank and degrades only by
// the lost fraction of one worker.
func runF24(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	p, tasks := 16, 256
	if cfg.Quick {
		p, tasks = 8, 64
	}
	const taskSec = 1e-3
	factors := []float64{1, 2, 4, 8, 16}
	if cfg.Quick {
		factors = []float64{1, 4, 16}
	}
	ideal := float64(tasks) / float64(p) * taskSec
	f := report.NewFigure("F24",
		fmt.Sprintf("straggler mitigation: %d tasks on %d ranks, rank %d slowed", tasks, p, p-1),
		"straggler slowdown factor", "parallel efficiency")
	f.Xs = factors
	for _, dynamic := range []bool{false, true} {
		name := "static partition"
		if dynamic {
			name = "self-scheduling (over-decomposed)"
		}
		ys := make([]float64, 0, len(factors))
		for _, factor := range factors {
			c := chaos.StragglerConfig{Ranks: p, Tasks: tasks, TaskSec: taskSec, Dynamic: dynamic, Obs: cfg.Obs}
			if factor > 1 {
				c.Chaos = chaos.NewScenario().Add(chaos.NewStraggler(p-1, factor))
			}
			res, err := chaos.RunStragglerCampaign(spec, c)
			if err != nil {
				return Output{}, err
			}
			ys = append(ys, ideal/res.Makespan)
		}
		f.AddSeries(name, ys)
	}
	return Output{Figure: f}, nil
}

// runF25 plots the checkpoint-interval trade-off: total campaign time versus
// checkpoint interval with a scripted late rank failure. Checkpointing every
// step pays maximal overhead; checkpointing rarely pays maximal replay; the
// minimum sits in between (the classic optimal-period U-curve), and the
// uncheckpointed run replays the whole prefix.
func runF25(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	p, steps := 8, 48
	if cfg.Quick {
		p, steps = 4, 24
	}
	const stepSec = 1e-3
	ckptSec := 0.5 * stepSec
	failStep := steps - 1 // worst case: the failure lands on the last step
	intervals := []int{1, 2, 4, 8, 16, 24}
	if cfg.Quick {
		intervals = []int{1, 4, 12}
	}
	run := func(interval, fail int) (chaos.CheckpointResult, error) {
		return chaos.RunCheckpointCampaign(spec, chaos.CheckpointConfig{
			Ranks: p, Steps: steps, StepSec: stepSec,
			Interval: interval, CkptSec: ckptSec,
			FailStep: fail, FailRank: p / 2, RestartSec: 4 * stepSec,
			Obs: cfg.Obs,
		})
	}
	f := report.NewFigure("F25",
		fmt.Sprintf("checkpoint/replay: %d-step campaign on %d ranks, rank %d fails at step %d",
			steps, p, p/2, failStep),
		"checkpoint interval (steps)", "total time (ms)")
	for _, k := range intervals {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		f.Xs = append(f.Xs, float64(k))
	}
	var withFail, noFail, bare []float64
	bareRes, err := run(0, failStep)
	if err != nil {
		return Output{}, err
	}
	for _, k := range intervals {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		res, err := run(k, failStep)
		if err != nil {
			return Output{}, err
		}
		withFail = append(withFail, res.Makespan*1e3)
		clean, err := run(k, -1)
		if err != nil {
			return Output{}, err
		}
		noFail = append(noFail, clean.Makespan*1e3)
		bare = append(bare, bareRes.Makespan*1e3)
	}
	f.AddSeries("with failure", withFail)
	f.AddSeries("failure-free (overhead only)", noFail)
	f.AddSeries("no checkpoints + failure", bare)
	return Output{Figure: f}, nil
}
