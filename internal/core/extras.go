package core

import (
	"context"

	"fmt"

	"tenways/internal/amdahl"
	"tenways/internal/dag"
	"tenways/internal/energy"
	"tenways/internal/mem"
	"tenways/internal/netsim"
	"tenways/internal/report"
)

// runT6 evaluates collective schedules under topology contention: the same
// traffic pattern costs wildly different amounts depending on how well the
// schedule's rounds match the wires — the keynote's hardware/software
// co-design point in communication form.
func runT6(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	p := 16
	bytes := float64(64 << 10)
	topos := []netsim.Topology{
		netsim.NewFullyConnected(p),
		netsim.NewTorus2D(4, p/4),
		netsim.NewFatTree2(p, 4),
		netsim.NewDragonfly(p, 4),
		netsim.NewRing(p),
	}
	schedules := []struct {
		name   string
		rounds [][]netsim.Transfer
	}{
		{"alltoall one-shot", netsim.AlltoallOneShot(p, bytes)},
		{"alltoall pairwise", netsim.AlltoallPairwise(p, bytes)},
		{"allgather ring", netsim.AllgatherRing(p, bytes)},
		{"broadcast binomial", netsim.BroadcastBinomialRounds(p, bytes)},
	}
	headers := []string{"schedule"}
	for _, t := range topos {
		headers = append(headers, t.Name())
	}
	tbl := report.NewTable("T6",
		fmt.Sprintf("collective schedules under contention (P=%d, %s blocks)",
			p, report.FormatBytes(bytes)),
		headers...)
	for _, s := range schedules {
		row := []string{s.name}
		for _, topo := range topos {
			m := netsim.NewModel(spec.Net, topo)
			row = append(row, report.FormatSeconds(m.ScheduleCost(s.rounds)))
		}
		tbl.AddRow(row...)
	}
	return Output{Table: tbl}, nil
}

// runF15 schedules four DAG shapes across worker counts and plots achieved
// speedup against the work/span ceiling: the shape of the task graph, not
// the machine, bounds what parallelism can possibly buy.
func runF15(ctx context.Context, cfg Config) (Output, error) {
	ps := []int{1, 2, 4, 8, 16, 32, 64}
	if cfg.Quick {
		ps = []int{1, 4, 16}
	}
	shapes := []struct {
		name string
		d    *dag.DAG
	}{
		{"chain", dag.Chain(256, 1e-4)},
		{"fan-out", dag.FanOut(256, 1e-4)},
		{"fork-join", dag.ForkJoin(16, 16, 1e-4)},
		{"random-layered", dag.RandomLayered(2009, 16, 16, 1.0)},
	}
	f := report.NewFigure("F15", "DAG speedup vs workers (greedy list scheduling)",
		"workers", "speedup")
	for _, p := range ps {
		f.Xs = append(f.Xs, float64(p))
	}
	for _, sh := range shapes {
		var ys []float64
		s1, err := sh.d.ScheduleGreedy(1)
		if err != nil {
			return Output{}, err
		}
		for _, p := range ps {
			s, err := sh.d.ScheduleGreedy(p)
			if err != nil {
				return Output{}, err
			}
			ys = append(ys, s1.Makespan/s.Makespan)
		}
		par, err := sh.d.Parallelism()
		if err != nil {
			return Output{}, err
		}
		f.AddSeries(fmt.Sprintf("%s (T1/Tinf=%.3g)", sh.name, par), ys)
	}
	return Output{Figure: f}, nil
}

// runF16 plots the analytic speedup laws the W5 experiment instantiates:
// Amdahl versus Gustafson across serial fractions.
func runF16(context.Context, Config) (Output, error) {
	ps := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	f := report.NewFigure("F16", "speedup laws: Amdahl (fixed size) vs Gustafson (scaled)",
		"processors", "speedup")
	for _, p := range ps {
		f.Xs = append(f.Xs, float64(p))
	}
	for _, frac := range []float64{0.01, 0.05, 0.2} {
		var am, gu []float64
		for _, p := range ps {
			am = append(am, amdahl.Speedup(frac, p))
			gu = append(gu, amdahl.Gustafson(frac, p))
		}
		f.AddSeries(fmt.Sprintf("amdahl f=%.2g", frac), am)
		f.AddSeries(fmt.Sprintf("gustafson f=%.2g", frac), gu)
	}
	return Output{Figure: f}, nil
}

// runF17 is the prefetcher ablation: a hardware next-line prefetcher hides
// the latency of a sequential stream but moves every byte anyway, so the
// energy waste of poor locality survives the hardware fix — W1 must be
// fixed in software.
func runF17(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	n := uint64(4 << 20)
	if cfg.Quick {
		n = 1 << 20
	}
	strides := []uint64{8, 64, 128, 256, 512}
	f := report.NewFigure("F17",
		"scan of a buffer: prefetcher ablation (time and DRAM energy)",
		"stride-bytes", "seconds / joules")
	for _, stride := range strides {
		f.Xs = append(f.Xs, float64(stride))
	}
	// One hierarchy per prefetch setting, reset for every stride; index 0
	// is without the prefetcher, 1 with it.
	var secs, joules [2][]float64
	for i, prefetch := range []bool{false, true} {
		h, err := mem.NewHierarchy(spec, 1)
		if err != nil {
			return Output{}, err
		}
		if prefetch {
			h.EnablePrefetch()
		}
		for _, stride := range strides {
			h.Reset()
			for a := uint64(0); a < n; a += stride {
				h.Read(0, a, 8)
			}
			m := energy.NewMeter()
			h.ChargeEnergy(m)
			secs[i] = append(secs[i], h.TimeSec())
			joules[i] = append(joules[i], m.Total())
		}
	}
	f.AddSeries("seconds-no-prefetch", secs[0])
	f.AddSeries("seconds-prefetch", secs[1])
	f.AddSeries("joules-no-prefetch", joules[0])
	f.AddSeries("joules-prefetch", joules[1])
	return Output{Figure: f}, nil
}

// runT7 places each kernel's measured-and-modeled serial fraction
// interpretation onto the suite: it reports, for the integrated stencil at
// several scales, the speedup, the Karp–Flatt serial fraction, and whether
// the fraction grows (overhead-bound) — the measurement-to-model bridge.
func runT7(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	gridN, steps := 1024, 10
	if cfg.Quick {
		gridN, steps = 512, 5
	}
	base, err := StencilCampaign(cfg.Obs, spec, 1, gridN, steps, false)
	if err != nil {
		return Output{}, err
	}
	tbl := report.NewTable("T7",
		fmt.Sprintf("Karp–Flatt analysis of the stencil (%d^2 grid) on %s", gridN, spec.Name),
		"ranks", "stack", "speedup", "efficiency", "karp-flatt serial fraction")
	var ps []int
	speedupsRemedied := make([]float64, 0, 5)
	for _, p := range []int{2, 4, 8, 16, 32} {
		for _, wasteful := range []bool{true, false} {
			res, err := StencilCampaign(cfg.Obs, spec, p, gridN, steps, wasteful)
			if err != nil {
				return Output{}, err
			}
			s := base.Seconds / res.Seconds
			if s > float64(p) {
				s = float64(p) // clamp modelling artefacts at the linear bound
			}
			kf, err := amdahl.KarpFlatt(s, p)
			kfCell := "n/a"
			if err == nil {
				kfCell = report.FormatG(kf)
			}
			stack := "remedied"
			if wasteful {
				stack = "wasteful"
			} else {
				ps = append(ps, p)
				speedupsRemedied = append(speedupsRemedied, s)
			}
			tbl.AddRow(fmt.Sprintf("%d", p), stack,
				report.FormatFactor(s),
				fmt.Sprintf("%.0f%%", 100*amdahl.Efficiency(s, p)),
				kfCell)
		}
	}
	if f, growing, err := amdahl.FitSerialFraction(ps, speedupsRemedied); err == nil {
		trend := "stable (inherent serial work)"
		if growing {
			trend = "growing (communication overhead)"
		}
		tbl.AddRow("fit", "remedied", "", "", fmt.Sprintf("%s, %s", report.FormatG(f), trend))
	}
	return Output{Table: tbl}, nil
}
