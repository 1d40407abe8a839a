package netsim

import (
	"tenways/internal/machine"
)

// Model combines a LogGP parameterisation with a topology. The per-message
// time of a single uncongested transfer is
//
//	α + 2o + (hops-1)·perHop + bytes/bandwidth
//
// and the Makespan bound adds link contention: concurrent transfers that
// share a link serialise on it.
type Model struct {
	Spec      machine.NetSpec
	Topo      Topology
	PerHopSec float64 // extra latency per hop beyond the first
}

// NewModel builds a model from a machine's network spec and a topology.
// The per-hop latency defaults to a quarter of α, a typical router-delay
// share of end-to-end latency.
func NewModel(spec machine.NetSpec, topo Topology) *Model {
	return &Model{Spec: spec, Topo: topo, PerHopSec: spec.AlphaSec / 4}
}

// MsgTime returns the uncongested time of one src→dst message.
// Local (src == dst) transfers cost only the software overhead.
func (m *Model) MsgTime(src, dst int, bytes float64) float64 {
	hops := len(m.Topo.Path(src, dst))
	if hops == 0 {
		return 2 * m.Spec.OverheadSec
	}
	return m.Spec.AlphaSec + 2*m.Spec.OverheadSec +
		float64(hops-1)*m.PerHopSec + bytes/m.Spec.BytesPerSec
}

// MsgEnergy returns the energy of one message: the fixed per-message cost
// plus per-byte wire energy multiplied by the hop count (each hop re-drives
// the bytes over a link).
func (m *Model) MsgEnergy(src, dst int, bytes float64) float64 {
	hops := len(m.Topo.Path(src, dst))
	if hops == 0 {
		return 0
	}
	return (m.Spec.PJPerMessage + bytes*m.Spec.PJPerByte*float64(hops)) * 1e-12
}

// Transfer is one message for batch congestion analysis.
type Transfer struct {
	Src, Dst int
	Bytes    float64
}

// Makespan returns a lower-bound completion time for the batch of
// concurrent transfers: the larger of (a) the most-loaded link's
// serialisation time and (b) the longest single transfer's uncongested
// time. This is the standard "max of bandwidth bound and latency bound"
// congestion model.
func (m *Model) Makespan(ts []Transfer) float64 {
	if len(ts) == 0 {
		return 0
	}
	load := make([]float64, m.Topo.NumLinks())
	latBound := 0.0
	for _, t := range ts {
		p := m.Topo.Path(t.Src, t.Dst)
		for _, l := range p {
			load[l] += t.Bytes
		}
		if u := m.MsgTime(t.Src, t.Dst, t.Bytes); u > latBound {
			latBound = u
		}
	}
	bwBound := 0.0
	for _, b := range load {
		if t := b / m.Spec.BytesPerSec; t > bwBound {
			bwBound = t
		}
	}
	if bwBound > latBound {
		return bwBound
	}
	return latBound
}
