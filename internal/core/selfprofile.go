package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"tenways/internal/obs"
	"tenways/internal/report"
)

// profileIDs is the deterministic sub-suite T10 profiles: cheap experiments
// chosen so every instrumented subsystem shows up — the pdes engine and
// pgas runtime (T3, F3, F14), the chaos injectors and checkpoint machinery
// (F23, F24, F25), and the autotuner (F26).
var profileIDs = []string{"T3", "F3", "F14", "F23", "F24", "F25", "F26"}

// work is the deterministic work an experiment (or a merged sub-suite)
// performed, as T10's columns show it.
type work struct {
	events, messages, wireBytes, collOps, collBytes, chaosInj, tuneEvals int64
	virtual                                                              float64
}

func workOf(m obs.Snapshot) work {
	return work{
		events:    m.Counter("pdes.events"),
		virtual:   m.Gauge("pdes.virtual_seconds"),
		messages:  m.Counter("pgas.messages"),
		wireBytes: m.Counter("pgas.bytes_sent"),
		collOps:   m.Counter("collective.ops"),
		collBytes: m.Counter("collective.bytes"),
		chaosInj:  m.Counter("chaos.injections"),
		tuneEvals: m.Counter("tune.evaluations"),
	}
}

// row formats one T10 row: a label, a measured wall time, then the work.
func (w work) row(label string, wall time.Duration) []string {
	return []string{label,
		report.FormatSeconds(wall.Seconds()),
		fmt.Sprintf("%d", w.events),
		report.FormatG(w.virtual),
		fmt.Sprintf("%d", w.messages),
		report.FormatBytes(float64(w.wireBytes)),
		fmt.Sprintf("%d", w.collOps),
		report.FormatBytes(float64(w.collBytes)),
		fmt.Sprintf("%d", w.chaosInj),
		fmt.Sprintf("%d", w.tuneEvals),
	}
}

// runT10 is the lab's one measurement of itself. It runs the profile
// sub-suite once per worker width — 1, then every power of two up to
// max(2, GOMAXPROCS) — each experiment on its own metrics registry. The
// table is the 1-worker run: the work each experiment performed (engine
// events, messages and wire bytes, collective calls, injected noise, tuner
// evaluations) and its host wall time. The figure plots the sweep's
// measured speedup over the 1-worker run against the ideal linear line.
// Wall times and speedups are measured, so they vary run to run; the work
// is deterministic, and a width whose merged work differs from the
// 1-worker run's is an error.
func runT10(ctx context.Context, cfg Config) (Output, error) {
	inner := Config{Machine: cfg.Machine, Quick: cfg.Quick, Seed: cfg.Seed}
	lab := NewLab()
	t := report.NewTable("T10",
		"lab self-profile: work metrics per experiment (wall is measured; the rest is deterministic)",
		"experiment", "wall", "events", "virtual s", "messages", "wire bytes",
		"coll ops", "coll bytes", "chaos inj", "tune evals")
	f := report.NewFigure("T10",
		fmt.Sprintf("parallel runner speedup vs workers (%d-experiment sub-suite, measured)", len(profileIDs)),
		"workers", "speedup")
	var serialWall time.Duration
	var total work
	var measured, ideal []float64
	for wk := 1; wk <= max(2, runtime.GOMAXPROCS(0)); wk *= 2 {
		start := time.Now()
		results, err := lab.RunAll(ctx, inner, RunOptions{Workers: wk, IDs: profileIDs})
		wall := time.Since(start)
		if err != nil {
			return Output{}, err
		}
		sum := obs.Snapshot{}
		for _, r := range results {
			sum = sum.Merge(r.Metrics)
		}
		if wk == 1 {
			serialWall, total = wall, workOf(sum)
			for _, r := range results {
				t.AddRow(workOf(r.Metrics).row(r.ID, r.Wall)...)
			}
			t.AddRow(total.row("total (1 worker)", serialWall)...)
		} else if got := workOf(sum); got != total {
			return Output{}, fmt.Errorf("T10: %d workers did %+v, 1 worker did %+v", wk, got, total)
		}
		f.Xs = append(f.Xs, float64(wk))
		measured = append(measured, serialWall.Seconds()/max(wall.Seconds(), 1e-9))
		ideal = append(ideal, float64(wk))
	}
	f.AddSeries("measured", measured)
	f.AddSeries("ideal", ideal)
	return Output{Table: t, Figure: f}, nil
}
