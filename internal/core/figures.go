package core

import (
	"context"

	"fmt"

	"tenways/internal/kernels"
	"tenways/internal/machine"
	"tenways/internal/report"
	"tenways/internal/roofline"
	"tenways/internal/waste"
)

// runF1 sweeps the matmul block size through the cache simulator.
func runF1(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	n := 96
	blocks := []int{4, 8, 16, 32, 48, 96}
	if cfg.Quick {
		n = 48
		blocks = []int{4, 16, 48}
	}
	f := report.NewFigure("F1",
		fmt.Sprintf("matmul n=%d: traffic and time vs block size on %s", n, spec.Name),
		"block", "seconds / MiB")
	var times, traffic []float64
	for _, b := range blocks {
		f.Xs = append(f.Xs, float64(b))
		res, dram, err := waste.MatmulLocality(spec, n, b)
		if err != nil {
			return Output{}, err
		}
		times = append(times, res.Seconds)
		traffic = append(traffic, float64(dram)/(1<<20))
	}
	f.AddSeries("modeled-seconds", times)
	f.AddSeries("dram-MiB", traffic)
	return Output{Figure: f}, nil
}

// runF2 sweeps the redundant-transfer factor of the halo exchange.
func runF2(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	p, gridN, steps := 16, 1024, 10
	if cfg.Quick {
		p, gridN, steps = 8, 256, 5
	}
	factors := []int{1, 2, 4, 8, 16, 32}
	f := report.NewFigure("F2",
		fmt.Sprintf("halo exchange on %d ranks: cost vs redundant-transfer factor", p),
		"resend-factor", "seconds / MiB")
	var times, wire []float64
	base := kernels.HaloModel{N: gridN, P: p}.HaloWords() / 2
	for _, k := range factors {
		f.Xs = append(f.Xs, float64(k))
		res, bytes, err := waste.HaloExchange(spec, p, gridN, steps, base*k)
		if err != nil {
			return Output{}, err
		}
		times = append(times, res.Seconds)
		wire = append(wire, float64(bytes)/(1<<20))
	}
	f.AddSeries("modeled-seconds", times)
	f.AddSeries("wire-MiB", wire)
	return Output{Figure: f}, nil
}

// runF3 sweeps rank count for global-barrier vs neighbour synchronisation.
func runF3(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	ps := []int{4, 8, 16, 32, 64, 128}
	if cfg.Quick {
		ps = []int{4, 16, 64}
	}
	f := report.NewFigure("F3", "substep sync cost vs ranks", "ranks", "seconds")
	var global, neighbour []float64
	for _, p := range ps {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		f.Xs = append(f.Xs, float64(p))
		g, err := waste.OversyncSweep(spec, p, 5, 4, true)
		if err != nil {
			return Output{}, err
		}
		n, err := waste.OversyncSweep(spec, p, 5, 4, false)
		if err != nil {
			return Output{}, err
		}
		global = append(global, g.Seconds)
		neighbour = append(neighbour, n.Seconds)
	}
	f.AddSeries("global-barrier", global)
	f.AddSeries("neighbour-sync", neighbour)
	return Output{Figure: f}, nil
}

// runF4 sweeps the Zipf skew exponent for static vs dynamic scheduling.
func runF4(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	skews := []float64{0, 0.4, 0.8, 1.2, 1.6, 2.0}
	f := report.NewFigure("F4", "parallel efficiency vs task-cost skew (16 workers)",
		"zipf-exponent", "efficiency")
	var static, dynamic []float64
	for _, s := range skews {
		f.Xs = append(f.Xs, s)
		out, err := waste.Imbalance(spec, 16, s)
		if err != nil {
			return Output{}, err
		}
		// Efficiency = ideal/actual; ideal is the dynamic lower bound of
		// total/P which both share, so report relative to the better one.
		best := out.Remedied.Seconds
		static = append(static, best/out.Wasteful.Seconds)
		dynamic = append(dynamic, 1.0)
	}
	f.AddSeries("static-efficiency", static)
	f.AddSeries("dynamic-efficiency", dynamic)
	return Output{Figure: f}, nil
}

// runF5 sweeps core count for locked vs sharded updates.
func runF5(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	cores := []int{1, 2, 4, 8, 16, 32}
	const updates = 1 << 18
	f := report.NewFigure("F5", "update throughput vs cores", "cores", "updates/s")
	var locked, sharded []float64
	for _, p := range cores {
		f.Xs = append(f.Xs, float64(p))
		l := waste.Serialization(spec, p, updates, true)
		s := waste.Serialization(spec, p, updates, false)
		locked = append(locked, updates/l.Seconds)
		sharded = append(sharded, updates/s.Seconds)
	}
	f.AddSeries("global-lock", locked)
	f.AddSeries("sharded", sharded)
	return Output{Figure: f}, nil
}

// runF6 sweeps the compute/communication ratio for blocking vs overlap.
func runF6(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	ratios := []float64{0.25, 0.5, 1, 2, 4}
	p, steps, words := 8, 20, 4096
	if cfg.Quick {
		p, steps = 4, 5
	}
	msgTime := spec.MsgTimeSec(float64(8 * words))
	f := report.NewFigure("F6", "exchange+compute time vs compute/comm ratio",
		"compute/comm", "seconds")
	var blocking, overlap []float64
	for _, ratio := range ratios {
		f.Xs = append(f.Xs, ratio)
		flops := ratio * msgTime * spec.PeakFlopsPerCore()
		b, err := waste.OverlapExchange(spec, p, steps, words, flops, false)
		if err != nil {
			return Output{}, err
		}
		o, err := waste.OverlapExchange(spec, p, steps, words, flops, true)
		if err != nil {
			return Output{}, err
		}
		blocking = append(blocking, b.Seconds)
		overlap = append(overlap, o.Seconds)
	}
	f.AddSeries("blocking", blocking)
	f.AddSeries("overlapped", overlap)
	return Output{Figure: f}, nil
}

// runF7 sweeps message size for moving a fixed volume.
func runF7(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	words := 1 << 16
	msgSizes := []int{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}
	if cfg.Quick {
		words = 1 << 12
		msgSizes = []int{1, 16, 256, 4096}
	}
	f := report.NewFigure("F7",
		fmt.Sprintf("moving %d words rank0->rank1 vs message size (n1/2 = %s)",
			words, report.FormatBytes(spec.HalfBandwidthBytes())),
		"message-words", "seconds")
	var times, effBW []float64
	for _, m := range msgSizes {
		if m > words {
			continue
		}
		f.Xs = append(f.Xs, float64(m))
		res, err := waste.BulkTransfer(spec, words, m)
		if err != nil {
			return Output{}, err
		}
		times = append(times, res.Seconds)
		effBW = append(effBW, float64(8*words)/res.Seconds/1e9)
	}
	f.AddSeries("modeled-seconds", times)
	f.AddSeries("effective-GB/s", effBW)
	return Output{Figure: f}, nil
}

// runF8 sweeps arithmetic intensity producing every preset's roofline.
func runF8(context.Context, Config) (Output, error) {
	ais := []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1, 2, 4, 8, 16, 32, 64}
	f := report.NewFigure("F8", "rooflines of all machine presets",
		"flops/byte", "GF/s")
	f.Xs = ais
	for _, spec := range machine.Presets() {
		ys := make([]float64, len(ais))
		for i, ai := range ais {
			ys[i] = roofline.Attainable(spec, ai) / 1e9
		}
		f.AddSeries(spec.Name, ys)
	}
	return Output{Figure: f}, nil
}

// runF9 sweeps the per-core counter stride through the coherence model.
func runF9(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	strides := []int{8, 16, 32, 64, 128}
	iters := 2000
	if cfg.Quick {
		iters = 300
	}
	f := report.NewFigure("F9", "per-core counters: cost vs stride (4 cores)",
		"stride-bytes", "seconds / events")
	res, inv, err := waste.FalseSharing(spec, 4, iters, strides)
	if err != nil {
		return Output{}, err
	}
	times := make([]float64, len(strides))
	invs := make([]float64, len(strides))
	for i, s := range strides {
		f.Xs = append(f.Xs, float64(s))
		times[i], invs[i] = res[i].Seconds, float64(inv[i])
	}
	f.AddSeries("modeled-seconds", times)
	f.AddSeries("invalidations", invs)
	return Output{Figure: f}, nil
}

// runF10 sweeps the idle fraction for spin/block × proportionality.
func runF10(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	prop := spec.WithProportionalPower(0.1)
	idles := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9}
	const total = 1.0 // one second of wall time per point
	const rounds = 10
	f := report.NewFigure("F10", "energy vs idle fraction", "idle-fraction", "joules")
	var spin, block, blockProp []float64
	for _, idle := range idles {
		f.Xs = append(f.Xs, idle)
		busy := (total / rounds) * (1 - idle)
		wait := (total / rounds) * idle
		spin = append(spin, waste.IdleEnergy(spec, busy, wait, rounds, true).Joules)
		block = append(block, waste.IdleEnergy(spec, busy, wait, rounds, false).Joules)
		blockProp = append(blockProp, waste.IdleEnergy(prop, busy, wait, rounds, false).Joules)
	}
	f.AddSeries("spin", spin)
	f.AddSeries("block", block)
	f.AddSeries("block-proportional", blockProp)
	return Output{Figure: f}, nil
}

// runF11 strong-scales the integrated stencil: fixed 2048² grid.
func runF11(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	gridN, steps := 2048, 10
	ps := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	if cfg.Quick {
		gridN, steps = 512, 5
		ps = []int{1, 4, 16, 64}
	}
	f := report.NewFigure("F11",
		fmt.Sprintf("strong scaling: %d^2 stencil, %d steps", gridN, steps),
		"ranks", "seconds")
	var wasteful, remedied, ideal []float64
	var t1 float64
	for i, p := range ps {
		f.Xs = append(f.Xs, float64(p))
		w, err := StencilCampaign(cfg.Obs, spec, p, gridN, steps, true)
		if err != nil {
			return Output{}, err
		}
		r, err := StencilCampaign(cfg.Obs, spec, p, gridN, steps, false)
		if err != nil {
			return Output{}, err
		}
		if i == 0 {
			t1 = r.Seconds * float64(p)
		}
		wasteful = append(wasteful, w.Seconds)
		remedied = append(remedied, r.Seconds)
		ideal = append(ideal, t1/float64(p))
	}
	f.AddSeries("wasteful-stack", wasteful)
	f.AddSeries("remedied-stack", remedied)
	f.AddSeries("ideal", ideal)
	return Output{Figure: f}, nil
}

// runF12 weak-scales the integrated stencil: 64 rows per rank.
func runF12(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	rowsPerRank, steps := 64, 10
	ps := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if cfg.Quick {
		steps = 5
		ps = []int{1, 4, 16, 64}
	}
	f := report.NewFigure("F12",
		fmt.Sprintf("weak scaling: %d rows/rank, %d steps", rowsPerRank, steps),
		"ranks", "seconds")
	var wasteful, remedied []float64
	for _, p := range ps {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		f.Xs = append(f.Xs, float64(p))
		gridN := rowsPerRank * p
		w, err := StencilCampaign(cfg.Obs, spec, p, gridN, steps, true)
		if err != nil {
			return Output{}, err
		}
		r, err := StencilCampaign(cfg.Obs, spec, p, gridN, steps, false)
		if err != nil {
			return Output{}, err
		}
		wasteful = append(wasteful, w.Seconds)
		remedied = append(remedied, r.Seconds)
	}
	f.AddSeries("wasteful-stack", wasteful)
	f.AddSeries("remedied-stack", remedied)
	return Output{Figure: f}, nil
}

// runF13 sweeps the 2.5D replication factor.
func runF13(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	const n, p = 8192, 4096
	cs := []int{1, 2, 4, 8, 16}
	f := report.NewFigure("F13",
		fmt.Sprintf("2.5D matmul model: n=%d, p=%d", n, p),
		"replication-c", "words / seconds / GiB")
	var words, times, mem []float64
	for _, c := range cs {
		f.Xs = append(f.Xs, float64(c))
		m := kernels.CommAvoidingMatMul{N: n, P: p, C: c}
		words = append(words, m.WordsPerProc())
		times = append(times, m.CommSeconds(spec))
		mem = append(mem, 8*m.MemoryPerProcWords()/(1<<30))
	}
	f.AddSeries("words-per-proc", words)
	f.AddSeries("comm-seconds", times)
	f.AddSeries("memory-GiB", mem)
	return Output{Figure: f}, nil
}

// runF14 sweeps rank count for the three allreduce algorithms.
func runF14(ctx context.Context, cfg Config) (Output, error) {
	spec := cfg.machine()
	ps := []int{2, 4, 8, 16, 32, 64, 128, 256}
	words := 4096
	if cfg.Quick {
		ps = []int{2, 8, 32}
		words = 512
	}
	f := report.NewFigure("F14",
		fmt.Sprintf("allreduce of %d words vs ranks", words),
		"ranks", "seconds")
	var flat, rd, ring []float64
	for _, p := range ps {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		f.Xs = append(f.Xs, float64(p))
		for _, alg := range []string{"flat", "rdouble", "ring"} {
			secs, err := allreduceTime(cfg.Obs, spec, p, words, alg)
			if err != nil {
				return Output{}, err
			}
			switch alg {
			case "flat":
				flat = append(flat, secs)
			case "rdouble":
				rd = append(rd, secs)
			case "ring":
				ring = append(ring, secs)
			}
		}
	}
	f.AddSeries("flat", flat)
	f.AddSeries("recursive-doubling", rd)
	f.AddSeries("ring", ring)
	return Output{Figure: f}, nil
}
