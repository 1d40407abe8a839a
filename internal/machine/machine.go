// Package machine defines the parameterised abstract machine model used by
// every modeled experiment in tenways: core counts and clock rates, a cache
// hierarchy, DRAM, an interconnect in the LogGP style, and — central to the
// keynote's argument — energy constants for computing and for moving data at
// each level of the hierarchy.
//
// Absolute constants in the presets are era-plausible ballparks drawn from
// the 2008 DARPA exascale study and 2009-class hardware; the experiments
// depend on the *ratios* (bytes/flop balance, α versus β, pJ/byte versus
// pJ/flop, idle versus busy power), which these presets encode faithfully.
// All constants are plain struct fields so a user can build custom machines.
package machine

import (
	"errors"
	"fmt"
)

// LevelSpec describes one cache level.
type LevelSpec struct {
	Name          string  // "L1", "L2", ...
	CapacityBytes int64   // total capacity of one instance of this level
	LineBytes     int     // cache line size
	Assoc         int     // set associativity
	LatencyCycles float64 // access latency in core cycles
	PJPerByte     float64 // energy to move one byte into this level
	Shared        bool    // true if shared by all cores of a node (LLC)
}

// MaxAssoc is the widest set associativity a level may have: the cache
// simulator keeps each set's valid ways as a 64-bit mask.
const MaxAssoc = 64

// DRAMSpec describes node-local main memory.
type DRAMSpec struct {
	LatencyCycles float64 // access latency in core cycles
	BytesPerSec   float64 // sustained node bandwidth
	PJPerByte     float64 // energy per byte moved from DRAM
}

// NetSpec describes the internode interconnect in LogGP terms.
type NetSpec struct {
	AlphaSec     float64 // end-to-end latency per message (L + hardware α)
	OverheadSec  float64 // software overhead per message at each end (o)
	BytesPerSec  float64 // per-link bandwidth (1/G per byte)
	PJPerByte    float64 // energy per byte on the wire
	PJPerMessage float64 // fixed per-message energy (NIC, protocol)
}

// PowerSpec describes the static/dynamic power behaviour of one core, used
// for the idle-energy (W10) experiments.
type PowerSpec struct {
	BusyWatts float64 // power of a core doing useful work
	IdleWatts float64 // power of a core that is stalled or spinning
}

// NUMASpec describes non-uniform memory access within a node: cores are
// split evenly over Domains, and touching memory homed in another domain
// costs extra latency and energy. Domains <= 1 means uniform memory.
type NUMASpec struct {
	Domains             int
	RemoteLatencyFactor float64 // multiplier on DRAM latency for remote accesses
	RemotePJFactor      float64 // multiplier on DRAM pJ/byte for remote accesses
}

// Uniform reports whether the spec describes a UMA node.
func (n NUMASpec) Uniform() bool { return n.Domains <= 1 }

// Spec is a complete machine description.
type Spec struct {
	Name              string
	Nodes             int
	CoresPerNode      int
	ClockHz           float64
	FlopsPerCoreCycle float64 // peak flops issued per core per cycle
	PJPerFlop         float64
	Levels            []LevelSpec // ordered nearest-first (L1 first)
	DRAM              DRAMSpec
	NUMA              NUMASpec
	Net               NetSpec
	Power             PowerSpec
}

// Validate reports the first structural problem with the spec, or nil.
func (s *Spec) Validate() error {
	switch {
	case s.Nodes < 1:
		return errors.New("machine: Nodes must be >= 1")
	case s.CoresPerNode < 1:
		return errors.New("machine: CoresPerNode must be >= 1")
	case s.ClockHz <= 0:
		return errors.New("machine: ClockHz must be positive")
	case s.FlopsPerCoreCycle <= 0:
		return errors.New("machine: FlopsPerCoreCycle must be positive")
	case s.DRAM.BytesPerSec <= 0:
		return errors.New("machine: DRAM.BytesPerSec must be positive")
	}
	for i, l := range s.Levels {
		if l.LineBytes <= 0 || l.CapacityBytes <= 0 || l.Assoc <= 0 {
			return fmt.Errorf("machine: level %d (%s) has non-positive geometry", i, l.Name)
		}
		if l.Assoc > MaxAssoc {
			return fmt.Errorf("machine: level %d (%s) is %d-way; at most %d ways are supported", i, l.Name, l.Assoc, MaxAssoc)
		}
		if l.CapacityBytes%int64(l.LineBytes) != 0 {
			return fmt.Errorf("machine: level %d (%s) capacity not a multiple of line size", i, l.Name)
		}
		sets := l.CapacityBytes / int64(l.LineBytes) / int64(l.Assoc)
		if sets == 0 {
			return fmt.Errorf("machine: level %d (%s) has zero sets", i, l.Name)
		}
	}
	if s.Nodes > 1 && s.Net.BytesPerSec <= 0 {
		return errors.New("machine: multi-node spec needs Net.BytesPerSec > 0")
	}
	return nil
}

// CycleSec returns the duration of one core cycle in seconds.
func (s *Spec) CycleSec() float64 { return 1 / s.ClockHz }

// PeakFlopsPerCore returns the peak flop rate of one core in flop/s.
func (s *Spec) PeakFlopsPerCore() float64 { return s.ClockHz * s.FlopsPerCoreCycle }

// PeakFlopsPerNode returns the peak flop rate of a node in flop/s.
func (s *Spec) PeakFlopsPerNode() float64 {
	return s.PeakFlopsPerCore() * float64(s.CoresPerNode)
}

// MachineBalance returns the node's DRAM bytes/flop balance — the central
// ratio of the roofline model. Low balance means algorithms need high
// arithmetic intensity to avoid being bandwidth bound.
func (s *Spec) MachineBalance() float64 {
	return s.DRAM.BytesPerSec / s.PeakFlopsPerNode()
}

// RidgeIntensity returns the arithmetic intensity (flops/byte) at the
// roofline ridge point: kernels below it are bandwidth bound on this machine.
func (s *Spec) RidgeIntensity() float64 {
	return s.PeakFlopsPerNode() / s.DRAM.BytesPerSec
}

// FlopTimeSec returns the time for a core to execute n flops at peak issue.
func (s *Spec) FlopTimeSec(n float64) float64 {
	return n / s.PeakFlopsPerCore()
}

// FlopEnergyJ returns the dynamic energy of n flops.
func (s *Spec) FlopEnergyJ(n float64) float64 { return n * s.PJPerFlop * 1e-12 }

// DRAMEnergyJ returns the energy of moving `bytes` from DRAM.
func (s *Spec) DRAMEnergyJ(bytes float64) float64 { return bytes * s.DRAM.PJPerByte * 1e-12 }

// MsgTimeSec returns the LogGP end-to-end time of one message of the given
// size: α + 2o + bytes/bandwidth.
func (s *Spec) MsgTimeSec(bytes float64) float64 {
	return s.Net.AlphaSec + 2*s.Net.OverheadSec + bytes/s.Net.BytesPerSec
}

// MsgEnergyJ returns the energy of one message of the given size.
func (s *Spec) MsgEnergyJ(bytes float64) float64 {
	return (s.Net.PJPerMessage + bytes*s.Net.PJPerByte) * 1e-12
}

// HalfBandwidthBytes returns the message size n½ at which half of peak
// network bandwidth is achieved — the classic aggregation knee: messages much
// smaller than n½ are α-dominated.
func (s *Spec) HalfBandwidthBytes() float64 {
	return (s.Net.AlphaSec + 2*s.Net.OverheadSec) * s.Net.BytesPerSec
}

// IdleEnergyJ returns the energy a core burns while idle for d seconds.
func (s *Spec) IdleEnergyJ(d float64) float64 { return d * s.Power.IdleWatts }

// BusyEnergyJ returns the energy a core burns while busy for d seconds.
func (s *Spec) BusyEnergyJ(d float64) float64 { return d * s.Power.BusyWatts }

// WithProportionalPower returns a copy whose idle power is the given
// fraction of busy power — the energy-proportionality ablation knob.
func (s *Spec) WithProportionalPower(idleFraction float64) *Spec {
	c := *s
	c.Levels = append([]LevelSpec(nil), s.Levels...)
	c.Power.IdleWatts = idleFraction * c.Power.BusyWatts
	return &c
}

// LineBytes returns the line size of the first cache level, or 64 if the
// machine has no cache levels configured.
func (s *Spec) LineBytes() int {
	if len(s.Levels) > 0 {
		return s.Levels[0].LineBytes
	}
	return 64
}
