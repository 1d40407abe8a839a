package core

import (
	"context"

	"fmt"

	"tenways/internal/collective"
	"tenways/internal/energy"
	"tenways/internal/kernels"
	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/pgas"
	"tenways/internal/report"
	"tenways/internal/roofline"
	"tenways/internal/waste"
)

// runT1 regenerates the headline table: every waste mode's time and energy
// factor on the configured machine.
func runT1(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	t := report.NewTable("T1",
		fmt.Sprintf("the ten ways on %s: wasteful vs remedied", spec.Name),
		"id", "waste", "t-wasteful", "t-remedied", "time-factor", "energy-factor", "note")
	for _, m := range waste.Modes() {
		out, err := m.Run(spec)
		if err != nil {
			return Output{}, fmt.Errorf("%s: %w", m.ID, err)
		}
		t.AddRow(
			m.ID,
			m.Name,
			report.FormatSeconds(out.Wasteful.Seconds),
			report.FormatSeconds(out.Remedied.Seconds),
			report.FormatFactor(out.TimeFactor()),
			report.FormatFactor(out.EnergyFactor()),
			out.Wasteful.Detail,
		)
	}
	return Output{Table: t}, nil
}

// runT2 regenerates the machine-balance table for all presets.
func runT2(context.Context, Config) (Output, error) {
	t := report.NewTable("T2", "machine balance across presets",
		"machine", "nodes", "cores/node", "GF/s node", "DRAM GB/s", "bytes/flop",
		"ridge AI", "pJ/flop", "DRAM pJ/B", "idle/busy", "alpha", "n1/2")
	for _, s := range machine.Presets() {
		t.AddRow(
			s.Name,
			fmt.Sprintf("%d", s.Nodes),
			fmt.Sprintf("%d", s.CoresPerNode),
			report.FormatG(s.PeakFlopsPerNode()/1e9),
			report.FormatG(s.DRAM.BytesPerSec/1e9),
			report.FormatG(s.MachineBalance()),
			report.FormatG(s.RidgeIntensity()),
			report.FormatG(s.PJPerFlop),
			report.FormatG(s.DRAM.PJPerByte),
			report.FormatG(s.Power.IdleWatts/s.Power.BusyWatts),
			report.FormatSeconds(s.Net.AlphaSec),
			report.FormatBytes(s.HalfBandwidthBytes()),
		)
	}
	return Output{Table: t}, nil
}

// barrierTime runs one barrier collective on p simulated ranks.
func barrierTime(reg *obs.Registry, spec *machine.Spec, p int, bar func(*collective.Comm)) (float64, error) {
	w := pgas.NewWorld(p, spec, nil, nil)
	w.SetObs(reg)
	return w.Run(func(r *pgas.Rank) { bar(collective.New(r)) })
}

// allreduceTime times one allreduce of m words on p simulated ranks,
// dispatching the algorithm by name through the same table the T3 tunable
// searches. Only the makespan is read, so the run carries sizes, not
// values (collective.Comm.AllreduceSize): the same schedule, charges and
// time as a data-carrying allreduce without copying or summing a vector.
func allreduceTime(reg *obs.Registry, spec *machine.Spec, p, m int, alg string) (float64, error) {
	w := pgas.NewWorld(p, spec, nil, nil)
	w.SetObs(reg)
	var innerErr error
	end, err := w.Run(func(r *pgas.Rank) {
		if e := collective.New(r).AllreduceSize(alg, m); e != nil && r.ID() == 0 {
			innerErr = e
		}
	})
	if err != nil {
		return 0, err
	}
	return end, innerErr
}

// runT3 regenerates the collective-algorithm comparison.
func runT3(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	ps := []int{4, 16, 64, 256}
	if cfg.Quick {
		ps = []int{4, 16, 64}
	}
	headers := []string{"operation"}
	for _, p := range ps {
		headers = append(headers, fmt.Sprintf("P=%d", p))
	}
	t := report.NewTable("T3",
		fmt.Sprintf("modeled collective latency on %s", spec.Name), headers...)

	barriers := []struct {
		name string
		fn   func(*collective.Comm)
	}{
		{"barrier central", (*collective.Comm).BarrierCentral},
		{"barrier dissemination", (*collective.Comm).BarrierDissemination},
		{"barrier tree", (*collective.Comm).BarrierTree},
	}
	for _, b := range barriers {
		row := []string{b.name}
		for _, p := range ps {
			secs, err := barrierTime(cfg.Obs, spec, p, b.fn)
			if err != nil {
				return Output{}, err
			}
			row = append(row, report.FormatSeconds(secs))
		}
		t.AddRow(row...)
	}
	for _, size := range []struct {
		label string
		words int
	}{{"allreduce 8B", 1}, {"allreduce 128KiB", 16384}} {
		for _, alg := range []string{"flat", "rdouble", "ring"} {
			row := []string{fmt.Sprintf("%s %s", size.label, alg)}
			for _, p := range ps {
				secs, err := allreduceTime(cfg.Obs, spec, p, size.words, alg)
				if err != nil {
					return Output{}, err
				}
				row = append(row, report.FormatSeconds(secs))
			}
			t.AddRow(row...)
		}
	}
	return Output{Table: t}, nil
}

// kernelIntensities lists the T4/F8 kernels with their per-byte flop
// intensities (standard streaming models, 8-byte words).
func kernelIntensities() []struct {
	Name string
	AI   float64
} {
	fftN := 1 << 20
	nbodyN := 4096
	return []struct {
		Name string
		AI   float64
	}{
		{"stream triad", kernels.TriadFlops(1) / kernels.TriadBytes(1)},
		{"dot product", kernels.DotFlops(1) / kernels.DotBytes(1)},
		{"spmv (csr)", kernels.SpMVFlops(1) / kernels.SpMVBytes(1)},
		{"jacobi 2d", kernels.Jacobi2DFlops(1024) / kernels.Jacobi2DBytes(1024)},
		{"fft 1M", kernels.FFTFlops(fftN) / firstOf(kernels.FFTBytes(fftN, 3<<20))},
		{"matmul blocked b=64", 2 * 64 / 8.0 / 3}, // 2b flops per 24 bytes streamed per block row
		{"n-body direct 4k", kernels.NBodyIntensity(nbodyN)},
	}
}

func firstOf(a, _ float64) float64 { return a }

// runT4 regenerates the kernel roofline table.
func runT4(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	t := report.NewTable("T4",
		fmt.Sprintf("kernel arithmetic intensity and roofline bound on %s (ridge %.2f flops/byte)",
			spec.Name, spec.RidgeIntensity()),
		"kernel", "AI flops/byte", "attainable GF/s", "% of peak", "bound")
	for _, k := range kernelIntensities() {
		p := roofline.Classify(spec, k.Name, k.AI)
		t.AddRow(
			k.Name,
			report.FormatG(k.AI),
			report.FormatG(p.Attainable/1e9),
			fmt.Sprintf("%.1f%%", 100*roofline.Efficiency(spec, k.AI)),
			p.Bound,
		)
	}
	return Output{Table: t}, nil
}

// runT5 regenerates the science-per-joule table: the integrated stencil on
// every machine preset, wasteful stack versus remedied stack.
func runT5(ctx context.Context, cfg Config) (Output, error) {
	p, gridN, steps := 32, 2048, 10
	if cfg.Quick {
		p, gridN, steps = 8, 512, 5
	}
	t := report.NewTable("T5",
		fmt.Sprintf("stencil science per joule (%d ranks, %d^2 grid, %d steps)", p, gridN, steps),
		"machine", "stack", "time", "energy", "EDP", "steps/J", "improvement")
	for _, spec := range machine.Presets() {
		w, err := StencilCampaign(cfg.Obs, spec, p, gridN, steps, true)
		if err != nil {
			return Output{}, err
		}
		r, err := StencilCampaign(cfg.Obs, spec, p, gridN, steps, false)
		if err != nil {
			return Output{}, err
		}
		t.AddRow(spec.Name, "wasteful",
			report.FormatSeconds(w.Seconds), report.FormatJoules(w.Joules),
			report.FormatG(energy.EDP(w.Joules, w.Seconds)),
			report.FormatG(w.StepsPerJoule()), "")
		t.AddRow(spec.Name, "remedied",
			report.FormatSeconds(r.Seconds), report.FormatJoules(r.Joules),
			report.FormatG(energy.EDP(r.Joules, r.Seconds)),
			report.FormatG(r.StepsPerJoule()),
			report.FormatFactor(energy.SciencePerJoule(float64(r.Steps), r.Joules)/
				energy.SciencePerJoule(float64(w.Steps), w.Joules)))
	}
	return Output{Table: t}, nil
}
