package core

import (
	"context"
	"fmt"
	"time"

	"tenways/internal/obs"
	"tenways/internal/report"
)

// profileIDs is the deterministic sub-suite T10 profiles and F27 scales:
// cheap experiments chosen so every instrumented subsystem shows up — the
// pdes engine and pgas runtime (T3, F3, F14), the chaos injectors
// and checkpoint machinery (F23, F24, F25), and the autotuner (F26).
var profileIDs = []string{"T3", "F3", "F14", "F23", "F24", "F25", "F26"}

// runT10 runs the profile sub-suite serially, each experiment on its own
// metrics registry, and tabulates the work each one performed: engine
// events, messages and wire bytes, collective calls, injected noise, tuner
// evaluations, and host wall time. The wall column is measured, so it
// varies run to run; the work columns are deterministic.
func runT10(ctx context.Context, cfg Config) (Output, error) {
	inner := Config{Machine: cfg.Machine, Quick: cfg.Quick, Seed: cfg.Seed}
	start := time.Now()
	results, err := NewLab().RunAll(ctx, inner, RunOptions{Workers: 1, IDs: profileIDs})
	serialWall := time.Since(start)
	if err != nil {
		return Output{}, err
	}
	t := report.NewTable("T10",
		"lab self-profile: work metrics per experiment (wall is measured; the rest is deterministic)",
		"experiment", "wall", "events", "virtual s", "messages", "wire bytes",
		"coll ops", "coll bytes", "chaos inj", "tune evals")
	for _, r := range results {
		m := r.Metrics
		t.AddRow(r.ID,
			report.FormatSeconds(r.Wall.Seconds()),
			fmt.Sprintf("%d", m.Counter("pdes.events")),
			report.FormatG(m.Gauge("pdes.virtual_seconds")),
			fmt.Sprintf("%d", m.Counter("pgas.messages")),
			report.FormatBytes(float64(m.Counter("pgas.bytes_sent"))),
			fmt.Sprintf("%d", m.Counter("collective.ops")),
			report.FormatBytes(float64(m.Counter("collective.bytes"))),
			fmt.Sprintf("%d", m.Counter("chaos.injections")),
			fmt.Sprintf("%d", m.Counter("tune.evaluations")),
		)
	}
	// Footer: the same sub-suite serial vs on an 8-worker pool. The metric
	// totals are identical by construction (the work is deterministic); only
	// the wall time responds to the host's core count.
	total := obs.Snapshot{}
	for _, r := range results {
		total = total.Merge(r.Metrics)
	}
	start = time.Now()
	if _, err := NewLab().RunAll(ctx, inner, RunOptions{Workers: 8, IDs: profileIDs}); err != nil {
		return Output{}, err
	}
	parallelWall := time.Since(start)
	for _, row := range []struct {
		label string
		wall  time.Duration
	}{{"total (1 worker)", serialWall}, {"total (8 workers)", parallelWall}} {
		t.AddRow(row.label,
			report.FormatSeconds(row.wall.Seconds()),
			fmt.Sprintf("%d", total.Counter("pdes.events")),
			report.FormatG(total.Gauge("pdes.virtual_seconds")),
			fmt.Sprintf("%d", total.Counter("pgas.messages")),
			report.FormatBytes(float64(total.Counter("pgas.bytes_sent"))),
			fmt.Sprintf("%d", total.Counter("collective.ops")),
			report.FormatBytes(float64(total.Counter("collective.bytes"))),
			fmt.Sprintf("%d", total.Counter("chaos.injections")),
			fmt.Sprintf("%d", total.Counter("tune.evaluations")),
		)
	}
	return Output{Table: t}, nil
}

// runF27 measures the parallel runner itself: the profile sub-suite runs
// under increasing worker counts (always in quick mode to keep the repeats
// affordable) and the figure plots measured speedup over the one-worker
// run against the ideal linear line. Host wall time is measured, so this
// figure varies run to run.
func runF27(ctx context.Context, cfg Config) (Output, error) {
	workerCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		workerCounts = []int{1, 2, 4}
	}
	inner := Config{Machine: cfg.Machine, Quick: true, Seed: cfg.Seed}
	lab := NewLab()
	f := report.NewFigure("F27",
		fmt.Sprintf("parallel runner speedup vs workers (%d-experiment quick sub-suite, measured)", len(profileIDs)),
		"workers", "speedup")
	var serial float64
	var measured, ideal []float64
	for _, wk := range workerCounts {
		start := time.Now()
		if _, err := lab.RunAll(ctx, inner, RunOptions{Workers: wk, IDs: profileIDs}); err != nil {
			return Output{}, err
		}
		wall := time.Since(start).Seconds()
		if wall <= 0 {
			wall = 1e-9
		}
		if wk == 1 {
			serial = wall
		}
		f.Xs = append(f.Xs, float64(wk))
		measured = append(measured, serial/wall)
		ideal = append(ideal, float64(wk))
	}
	f.AddSeries("measured", measured)
	f.AddSeries("ideal", ideal)
	return Output{Figure: f}, nil
}
