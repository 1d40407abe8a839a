package core

import (
	"context"

	"tenways/internal/machine"
	"tenways/internal/mem"
	"tenways/internal/report"
)

// numaCores is the core count of F20's stream; its machine has two NUMA
// domains.
const numaCores = 4

// numaHierarchy builds the hierarchy F20 streams through: the lab's
// machine with two NUMA domains at the given remote-latency factor, and
// NUMA accounting under placement.
func numaHierarchy(cfg Config, remoteFactor float64, placement mem.Placement) (*mem.Hierarchy, error) {
	spec := *cfg.machine()
	spec.NUMA.Domains = 2
	spec.NUMA.RemoteLatencyFactor = remoteFactor
	h, err := mem.NewHierarchy(&spec, numaCores)
	if err != nil {
		return nil, err
	}
	h.EnableNUMA(placement)
	return h, nil
}

// numaStream resets h, homes a buffer according to the initialisation
// pattern, then measures a partitioned parallel stream over its 4 cores
// (2 domains). It leaves h with the compute phase's statistics: its
// TimeSec is the phase's modeled seconds, and its RemoteLines the DRAM
// lines the phase fetched from the remote domain under either placement.
func numaStream(h *mem.Hierarchy, serialInit bool, bytes uint64) {
	h.Reset()
	part := bytes / numaCores
	// Initialisation touches every page first.
	if serialInit {
		for a := uint64(0); a < bytes; a += 64 {
			h.Write(0, a, 8)
		}
	} else {
		for c := 0; c < numaCores; c++ {
			base := uint64(c) * part
			for a := base; a < base+part; a += 64 {
				h.Write(c, a, 8)
			}
		}
	}
	// Measure the compute phase only: placement decisions are made during
	// initialisation, their cost is paid during compute.
	h.ResetStats()
	// Compute phase: each core streams its own partition repeatedly. The
	// buffer exceeds cache, so traffic goes to (possibly remote) DRAM.
	for rep := 0; rep < 2; rep++ {
		for c := 0; c < numaCores; c++ {
			base := uint64(c) * part
			for a := base; a < base+part; a += 64 {
				h.Read(c, a, 8)
			}
		}
	}
}

// numaPlacements are F20's placement disciplines, in series order. The
// placements of one trace (one initialisation) are adjacent, so runF20
// simulates each trace once.
var numaPlacements = []struct {
	name       string
	placement  mem.Placement
	serialInit bool
}{
	{"first-touch-parallel-init", mem.PlacementFirstTouch, false},
	{"interleaved", mem.PlacementInterleave, false},
	{"first-touch-serial-init", mem.PlacementFirstTouch, true},
}

// runF20 sweeps the NUMA remote-latency factor for three placement
// disciplines: first-touch with parallel initialisation (every page
// local), interleaving (placement-oblivious, half the traffic remote), and
// first-touch after serial initialisation (the classic bug: one core
// touches everything, so every core outside its domain runs fully remote).
// With two domains the latter two average the same remote fraction in this
// latency-additive model — the bandwidth-saturation component of the
// serial-init pathology is out of scope, as DESIGN.md notes — so the
// figure's claim is first-touch-parallel strictly wins and the gap scales
// with the remote factor.
//
// Because the model is latency-additive, a placement's remote factor does
// not change which lines go remote, only what each costs: every remote
// line adds DRAM.LatencyCycles·(rf−1) cycles. And a placement only labels
// demand DRAM fetches, it never changes what the caches hold, so the two
// parallel-init placements run one identical trace. So each distinct
// trace — parallel and serial initialisation — is simulated once, at
// factor 1, and every placement's sweep is derived from that run's time
// and the placement's remote line count (numaSweep).
func runF20(ctx context.Context, cfg Config) (Output, error) {
	factors := []float64{1, 1.5, 2, 3, 4}
	// The buffer must exceed the machine's LLC so the measured compute
	// phase streams from (possibly remote) DRAM rather than from cache.
	bytes := uint64(32 << 20)
	if cfg.Quick {
		bytes = 16 << 20
		factors = []float64{1, 2, 4}
	}
	f := report.NewFigure("F20",
		"NUMA placement: modeled stream time vs remote-latency factor (4 cores, 2 domains)",
		"remote-latency-factor", "seconds")
	f.Xs = factors
	// Both traces run on one hierarchy at factor 1. The placement in force
	// there is immaterial: each trace yields RemoteLines for both.
	h, err := numaHierarchy(cfg, 1, mem.PlacementFirstTouch)
	if err != nil {
		return Output{}, err
	}
	for i, p := range numaPlacements {
		if i == 0 || p.serialInit != numaPlacements[i-1].serialInit {
			numaStream(h, p.serialInit, bytes)
		}
		f.AddSeries(p.name, numaSweep(cfg.machine(), h.TimeSec(), h.RemoteLines(p.placement), factors))
	}
	return Output{Figure: f}, nil
}

// numaSweep derives a placement's stream time at each remote-latency
// factor from its time t1 at factor 1 and its remote line count: the
// penalty numaDRAMPenalty charges per remote line, summed.
func numaSweep(spec *machine.Spec, t1 float64, remoteLines int64, factors []float64) []float64 {
	ts := make([]float64, len(factors))
	for i, rf := range factors {
		ts[i] = t1 + float64(remoteLines)*spec.DRAM.LatencyCycles*(rf-1)*spec.CycleSec()
	}
	return ts
}
