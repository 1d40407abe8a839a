package core

import (
	"context"
	"fmt"
	"time"

	"tenways/internal/netsim"
	"tenways/internal/pdes"
	"tenways/internal/report"
)

// f28Engine is the engine configuration F28 runs under. It is a package
// variable so the determinism tests can vary the partition and worker
// count and assert byte-identical output; none of its fields may influence
// the table. The lookahead is always the workload's minimum halo delay.
var f28Engine = pdes.Config{Partitions: 8, Workers: 8}

// runF28 reruns the F22 idle-wave physics at cluster scale on the
// partitioned engine: up to 2^20 simulated ranks run a blocking halo chain,
// one delay spike on rank 0 launches the wave, and a linear fit of each
// rank's first off-schedule step entry measures the propagation speed that
// the analytic model (arXiv:2103.03175) predicts as d_max/(c+delta_max).
// F22 shows the wave on 24 ranks; F28 shows the model still holds when the
// chain is five orders of magnitude longer than the wavefront.
func runF28(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	const compute = 50e-6
	const words = 16
	bytes := float64(words * 8)
	base := spec.Net.AlphaSec + 2*spec.Net.OverheadSec + bytes/spec.Net.BytesPerSec
	perHop := spec.Net.AlphaSec / 4

	steps := 12
	n1, n2 := 1<<20, 1<<18
	if cfg.Quick {
		steps = 8
		n1, n2 = 1<<14, 1<<12
	}
	// The torus variant scales each offset's delay by its hop count at an
	// interior pair, keeping the per-offset delay uniform across ranks (the
	// quiet cadence must be rank-independent for the fit to see only the
	// wave).
	torusDelay := func(n, off int) float64 {
		side := 1
		for side*side < n {
			side *= 2
		}
		topo := netsim.NewTorus2D(side, n/side)
		mid := n / 2
		return base + float64(netsim.Hops(topo, mid, mid+off)-1)*perHop
	}

	variants := []struct {
		name   string
		ranks  int
		offs   []int
		delays []float64
	}{
		{"logGP d={1}", n1, []int{1}, []float64{base}},
		{"logGP d={1,4}", n2, []int{1, 4}, []float64{base, base}},
		{"torus d={1,4}", n2, []int{1, 4}, []float64{torusDelay(n2, 1), torusDelay(n2, 4)}},
	}

	tbl := report.NewTable("F28",
		fmt.Sprintf("idle-wave speed at scale: one %s spike on rank 0 of a blocking halo chain (c=%s, %d-byte halos); measured = 1/slope of rank vs first off-schedule step entry, analytic = d_max/(c+delta_max)",
			report.FormatSeconds(3*compute), report.FormatSeconds(compute), int(bytes)),
		"variant", "ranks", "d_max", "events", "measured v (ranks/s)", "analytic v", "ratio", "R2")
	for _, v := range variants {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		w, err := pdes.NewIdleWave(v.ranks, steps, compute, 3*compute, v.offs, v.delays)
		if err != nil {
			return Output{}, fmt.Errorf("F28 %s: %w", v.name, err)
		}
		eng := f28Engine
		eng.Lookahead = w.MinDelay()
		eng.Obs = cfg.metrics()
		res, err := pdes.Run(w, eng)
		if err != nil {
			return Output{}, fmt.Errorf("F28 %s: %w", v.name, err)
		}
		speed, fit, _, err := w.WaveSpeed()
		if err != nil {
			return Output{}, fmt.Errorf("F28 %s: %w", v.name, err)
		}
		analytic := w.AnalyticSpeed()
		tbl.AddRow(v.name,
			fmt.Sprintf("%d", v.ranks),
			fmt.Sprintf("%d", v.offs[len(v.offs)-1]),
			fmt.Sprintf("%d", res.Events),
			report.FormatG(speed),
			report.FormatG(analytic),
			report.FormatFactor(speed/analytic),
			fmt.Sprintf("%.4f", fit.R2),
		)
	}
	return Output{Table: tbl}, nil
}

// runF29 turns the engine's own hot path into a waste-mode table: the same
// idle-wave workload under each combination of queue discipline (binary
// heap vs ladder) and window barrier (chan hand-off vs padded
// sense-reversing), measured on the host. The wasteful corner is PR 6's
// engine verbatim; the remedied corner is the current default. The virtual
// columns (events, windows, virtual time) are asserted identical across
// all four runs — the rewrite may only change wall time, never results.
// Measured: wall and speedup cells are host wall-clock and vary run to
// run.
func runF29(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	const compute = 50e-6
	delay := spec.Net.AlphaSec + 2*spec.Net.OverheadSec + 128/spec.Net.BytesPerSec

	ranks, steps := 1<<16, 8
	if cfg.Quick {
		ranks, steps = 1<<12, 6
	}

	// Workers > 1 so the barrier actually synchronises; 4 strided workers
	// over 8 partitions is the engine's own default shape for this table.
	rows := []struct {
		name    string
		queue   pdes.QueueKind
		barrier pdes.BarrierKind
	}{
		{"heap queue + chan barrier (wasteful)", pdes.QueueHeap, pdes.BarrierChan},
		{"heap queue + sense barrier", pdes.QueueHeap, pdes.BarrierSense},
		{"ladder queue + chan barrier", pdes.QueueLadder, pdes.BarrierChan},
		{"ladder queue + sense barrier (remedied)", pdes.QueueLadder, pdes.BarrierSense},
	}

	tbl := report.NewTable("F29",
		fmt.Sprintf("engine hot-path disciplines on the idle wave (%d ranks, %d steps, c=%s, 8 partitions, 4 workers, measured): binary heap vs ladder queue, chan vs sense-reversing window barrier; virtual results byte-identical across rows by construction",
			ranks, steps, report.FormatSeconds(compute)),
		"configuration", "events", "windows", "virtual s", "wall ms", "Mev/s", "speedup")

	var baseEvents, baseWindows uint64
	var baseVT, baseWall float64
	for i, row := range rows {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		w, err := pdes.NewIdleWave(ranks, steps, compute, 3*compute, []int{1}, []float64{delay})
		if err != nil {
			return Output{}, fmt.Errorf("F29 %s: %w", row.name, err)
		}
		eng := pdes.Config{
			Partitions: 8, Workers: 4,
			Lookahead: w.MinDelay(),
			Queue:     row.queue,
			Barrier:   row.barrier,
			Obs:       cfg.metrics(),
		}
		start := time.Now()
		res, err := pdes.Run(w, eng)
		wall := time.Since(start).Seconds()
		if err != nil {
			return Output{}, fmt.Errorf("F29 %s: %w", row.name, err)
		}
		if i == 0 {
			baseEvents, baseWindows, baseVT, baseWall = res.Events, res.Windows, res.VirtualTime, wall
		} else if res.Events != baseEvents || res.Windows != baseWindows || res.VirtualTime != baseVT {
			return Output{}, fmt.Errorf(
				"F29 %s: virtual results diverged from the wasteful baseline (events %d vs %d, windows %d vs %d, vt %g vs %g) — the disciplines must be result-identical",
				row.name, res.Events, baseEvents, res.Windows, baseWindows, res.VirtualTime, baseVT)
		}
		if wall <= 0 {
			wall = 1e-9
		}
		tbl.AddRow(row.name,
			fmt.Sprintf("%d", res.Events),
			fmt.Sprintf("%d", res.Windows),
			report.FormatSeconds(res.VirtualTime),
			fmt.Sprintf("%.2f", wall*1e3),
			fmt.Sprintf("%.2f", float64(res.Events)/wall/1e6),
			report.FormatFactor(baseWall/wall),
		)
	}
	return Output{Table: tbl}, nil
}
