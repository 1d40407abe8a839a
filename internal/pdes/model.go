package pdes

import "math"

// CostModel is the engine's own analytic wall-clock model — W7 turned on
// ourselves. Processing cost scales with the per-partition heap depth's
// log; synchronisation cost scales with the window count and the
// per-window per-partition batch bookkeeping. The partition count and
// lookahead that minimise it are machine-dependent, which is exactly why
// they are registered as internal/tune tunables (T9 covers them with the
// rest of the remedy parameters).
type CostModel struct {
	Events  int     // total events the run will process
	Ranks   int     // simulated ranks
	Horizon float64 // virtual seconds the run spans
	// EventSec is the per-event pop+handle base cost; the heap factor
	// log2(depth) multiplies it.
	EventSec float64
	// BarrierSec is the fixed per-window coordination cost (GVT reduction
	// and worker wakeup).
	BarrierSec float64
	// PartSec is the per-partition per-window cost (batch delivery scan
	// and window bookkeeping).
	PartSec float64
	// BucketSec is the ladder queue's per-bucket advance cost (frontier
	// scan, slab swap, sort setup) — only LadderWall uses it.
	BucketSec float64
}

// Wall estimates the wall-clock seconds for a run split into parts
// partitions on cores cores with the given lookahead window. The shape is
// convex in parts: more partitions shrink each heap and add concurrency up
// to the core count, then only add per-window scan cost; a narrower window
// multiplies the synchronisation term.
func (m CostModel) Wall(parts, cores int, lookahead float64) float64 {
	if parts < 1 {
		parts = 1
	}
	if cores < 1 {
		cores = 1
	}
	if lookahead <= 0 || m.Horizon <= 0 {
		return math.Inf(1)
	}
	conc := parts
	if conc > cores {
		conc = cores
	}
	// ~3 pending events per rank is the halo-workload steady state.
	depth := 3*float64(m.Ranks)/float64(parts) + 2
	work := float64(m.Events) * m.EventSec * math.Log2(depth) / float64(conc)
	windows := math.Ceil(m.Horizon / lookahead)
	sync := windows * (m.BarrierSec + m.PartSec*float64(parts))
	return work + sync
}

// LadderWall estimates wall-clock seconds for the same run under the
// ladder queue with the given bucket width (virtual seconds). Per-event
// cost pays the log of the per-bucket occupancy instead of the partition
// depth — the ladder's whole point — while each bucket advance costs
// BucketSec, so the curve is a U in the width: wide buckets degenerate
// toward one big sorted heap, narrow buckets pay the frontier scan per
// handful of events. Tunable F29-bucket searches this knob; it is unimodal
// along the width axis, so golden-section applies.
func (m CostModel) LadderWall(parts, cores int, lookahead, bucket float64) float64 {
	if parts < 1 {
		parts = 1
	}
	if cores < 1 {
		cores = 1
	}
	if lookahead <= 0 || bucket <= 0 || m.Horizon <= 0 {
		return math.Inf(1)
	}
	conc := parts
	if conc > cores {
		conc = cores
	}
	// Events per partition landing in one bucket of virtual time.
	occ := float64(m.Events) / float64(parts) * bucket / m.Horizon
	work := float64(m.Events) * m.EventSec * math.Log2(occ+2) / float64(conc)
	advances := m.Horizon / bucket * float64(parts)
	scan := advances * m.BucketSec / float64(conc)
	windows := math.Ceil(m.Horizon / lookahead)
	sync := windows * (m.BarrierSec + m.PartSec*float64(parts))
	return work + scan + sync
}
