package core

import (
	"context"

	"fmt"

	"tenways/internal/machine"
	"tenways/internal/report"
	"tenways/internal/tune"
)

// The tuning experiments (T9, F26) evaluate the internal/tune subsystem:
// does searching the remedy-parameter spaces actually beat the hand-picked
// constants the suite used to hard-code, and how fast do the strategies
// converge?

// runT9 tabulates, for every registered tunable on every machine preset,
// the modeled cost at the hand-picked default, at the tuner's choice, and
// at the exhaustive-grid oracle. The tuned column never loses to the
// default (the default is seeded into every search) and should sit within
// a few percent of the oracle at a fraction of its evaluations.
func runT9(ctx context.Context, cfg Config) (Output, error) {
	machines := tableMachines(cfg)
	tbl := report.NewTable("T9",
		"autotuned remedy parameters: modeled cost at default vs tuned vs exhaustive oracle",
		"tunable", "machine", "default", "tuned", "default cost", "tuned cost", "oracle cost", "evals", "saving")
	cache := tune.NewCache()
	for _, tn := range tune.Tunables(cfg.Quick) {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		for _, m := range machines {
			tuned, def, saving, err := tn.TuneVsDefault(m, tune.Options{Cache: cache, Obs: cfg.Obs})
			if err != nil {
				return Output{}, err
			}
			oracle, err := tn.Tune(m, tune.Options{Strategy: tune.Grid{}, Cache: cache, Obs: cfg.Obs})
			if err != nil {
				return Output{}, err
			}
			tbl.AddRow(tn.ID, m.Name,
				tn.DefaultLabel(), tn.Space.Describe(tuned.Best.Point),
				report.FormatSeconds(def.Seconds),
				report.FormatSeconds(tuned.Best.Cost.Seconds),
				report.FormatSeconds(oracle.Best.Cost.Seconds),
				fmt.Sprintf("%d", tuned.Evaluations),
				fmt.Sprintf("%.1f%%", 100*saving))
		}
	}
	return Output{Table: tbl}, nil
}

// tableMachines picks the presets T9 sweeps: all of them, or just the
// configured machine in quick mode.
func tableMachines(cfg Config) []*machine.Spec {
	if cfg.Quick {
		return []*machine.Spec{cfg.machine()}
	}
	return machine.Presets()
}

// runF26 plots tuner convergence on the checkpoint-interval tunable (the
// largest single-axis space): best-so-far modeled cost against evaluation
// count, one series per strategy. Golden-section reaches the grid's floor
// in O(log range) evaluations; hill climbing sits in between.
func runF26(ctx context.Context, cfg Config) (Output, error) {
	m := cfg.machine()
	tn, err := tune.ByID("F25-interval", cfg.Quick)
	if err != nil {
		return Output{}, err
	}
	strategies := []tune.Strategy{tune.Grid{}, tune.GoldenSection{}, tune.HillClimb{Restarts: 3}}
	f := report.NewFigure("F26",
		fmt.Sprintf("tuner convergence on %s (%s, machine %s)", tn.ID, tn.Title, m.Name),
		"evaluations", "best-so-far cost (ms)")
	var curves [][]float64
	maxLen := 0
	for _, s := range strategies {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		// Fresh cache per strategy: each pays for its own evaluations.
		res, err := tn.Tune(m, tune.Options{Strategy: s, Cache: tune.NewCache(), Obs: cfg.Obs})
		if err != nil {
			return Output{}, err
		}
		curve := res.BestSoFar()
		curves = append(curves, curve)
		if len(curve) > maxLen {
			maxLen = len(curve)
		}
	}
	for i := 1; i <= maxLen; i++ {
		f.Xs = append(f.Xs, float64(i))
	}
	for i, s := range strategies {
		curve := curves[i]
		ys := make([]float64, maxLen)
		for j := 0; j < maxLen; j++ {
			// A strategy that already stopped holds its final best.
			k := j
			if k >= len(curve) {
				k = len(curve) - 1
			}
			ys[j] = curve[k] * 1e3
		}
		f.AddSeries(fmt.Sprintf("%s (%d evals)", s.Name(), len(curve)), ys)
	}
	return Output{Figure: f}, nil
}
