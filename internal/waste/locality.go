package waste

import (
	"fmt"

	"tenways/internal/energy"
	"tenways/internal/kernels"
	"tenways/internal/machine"
	"tenways/internal/mem"
	"tenways/internal/report"
)

// w1MatrixN is the matmul dimension of the W1 demonstrator: three n×n
// float64 matrices must exceed the shrunken demonstration cache.
const w1MatrixN = 96

// w1Spec shrinks the machine's caches so the demonstrator matrices spill,
// keeping the trace short enough to simulate quickly while preserving the
// capacity-miss behaviour of a full-size problem.
func w1Spec(spec *machine.Spec) *machine.Spec {
	s := *spec
	s.Levels = []machine.LevelSpec{
		{Name: "L1", CapacityBytes: 8 << 10, LineBytes: 64, Assoc: 4,
			LatencyCycles: 4, PJPerByte: 0.6},
		{Name: "L2", CapacityBytes: 32 << 10, LineBytes: 64, Assoc: 8,
			LatencyCycles: 14, PJPerByte: 2, Shared: true},
	}
	return &s
}

// MatmulLocality runs the traced matmul at the given block size and
// returns the modeled time, energy, and DRAM traffic. It is shared by
// RunW1 and the F1 blocking-sweep figure.
func MatmulLocality(spec *machine.Spec, n, block int) (Result, int64, error) {
	s := w1Spec(spec)
	h, err := mem.NewHierarchy(s, 1)
	if err != nil {
		return Result{}, 0, err
	}
	kernels.MatMulTraced(h, n, block)
	m := energy.NewMeter()
	h.ChargeEnergy(m)
	flops := kernels.MatMulFlops(n)
	m.Add(energy.Flops, s.FlopEnergyJ(flops))
	secs := h.TimeSec() + s.FlopTimeSec(flops)
	m.Add(energy.Static, s.BusyEnergyJ(secs))
	dram := h.Stats().DRAMBytes
	return Result{
		Seconds: secs,
		Joules:  m.Total(),
		Detail:  fmt.Sprintf("DRAM traffic %s", report.FormatBytes(float64(dram))),
	}, dram, nil
}

// RunW1 contrasts naive and cache-blocked matmul through the cache
// simulator.
func RunW1(spec *machine.Spec) (Outcome, error) {
	naive, _, err := MatmulLocality(spec, w1MatrixN, w1MatrixN)
	if err != nil {
		return Outcome{}, err
	}
	blocked, _, err := MatmulLocality(spec, w1MatrixN, 8)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Wasteful: naive, Remedied: blocked}, nil
}

// FalseSharing replays iters rounds of per-core counter increments on
// `cores` cores once for each stride in strides, the bytes between
// counters (8 = packed on one line, >= line size = padded), and returns
// each stride's modeled time, energy, and invalidation count. Every stride
// runs on one hierarchy, reset between strides. Shared by RunW9 and figure
// F9.
func FalseSharing(spec *machine.Spec, cores, iters int, strides []int) ([]Result, []int64, error) {
	h, err := mem.NewHierarchy(spec, cores)
	if err != nil {
		return nil, nil, err
	}
	results := make([]Result, len(strides))
	invs := make([]int64, len(strides))
	for i, stride := range strides {
		h.Reset()
		for it := 0; it < iters; it++ {
			for c := 0; c < cores; c++ {
				addr := uint64(c * stride)
				h.Read(c, addr, 8)
				h.Write(c, addr, 8)
			}
		}
		m := energy.NewMeter()
		h.ChargeEnergy(m)
		flops := float64(iters * cores) // one add per increment
		m.Add(energy.Flops, spec.FlopEnergyJ(flops))
		secs := h.TimeSec() + spec.FlopTimeSec(flops)
		m.Add(energy.Static, spec.BusyEnergyJ(secs))
		invs[i] = h.Stats().Invalidations
		results[i] = Result{
			Seconds: secs,
			Joules:  m.Total(),
			Detail:  fmt.Sprintf("%d invalidations", invs[i]),
		}
	}
	return results, invs, nil
}

// RunW9 contrasts packed and padded per-core counters.
func RunW9(spec *machine.Spec) (Outcome, error) {
	cores := spec.CoresPerNode
	if cores > 16 {
		cores = 16
	}
	if cores < 2 {
		cores = 2
	}
	const iters = 3000
	res, _, err := FalseSharing(spec, cores, iters, []int{8, spec.LineBytes() * 2})
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Wasteful: res[0], Remedied: res[1]}, nil
}
