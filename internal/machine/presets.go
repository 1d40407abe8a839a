package machine

// The presets below encode three machine classes the keynote contrasts, plus
// an energy-proportional variant. Constants are era-plausible first-order
// numbers (2008 DARPA exascale study ballpark); every experiment's
// conclusion rests on their ratios, which are the ratios the talk cites:
// DRAM access costs ~1000× a register access in energy, network bytes cost
// more still, and 2009 machines idle at more than half of peak power.

// Laptop2009 models a 2009 dual-core laptop: the "software developers in
// general have not [worried about efficiency]" baseline.
func Laptop2009() *Spec {
	return &Spec{
		Name:              "laptop2009",
		Nodes:             1,
		CoresPerNode:      2,
		ClockHz:           2.5e9,
		FlopsPerCoreCycle: 4, // 128-bit SSE: 2 DP mul + 2 DP add
		PJPerFlop:         100,
		Levels: []LevelSpec{
			{Name: "L1", CapacityBytes: 32 << 10, LineBytes: 64, Assoc: 8, LatencyCycles: 4, PJPerByte: 0.6},
			{Name: "L2", CapacityBytes: 256 << 10, LineBytes: 64, Assoc: 8, LatencyCycles: 12, PJPerByte: 2},
			{Name: "L3", CapacityBytes: 3 << 20, LineBytes: 64, Assoc: 12, LatencyCycles: 36, PJPerByte: 8, Shared: true},
		},
		DRAM: DRAMSpec{LatencyCycles: 200, BytesPerSec: 8.5e9, PJPerByte: 150},
		// A laptop has no interconnect; keep a loopback-like model so
		// single-node specs can still run message-based demonstrators.
		Net:   NetSpec{AlphaSec: 2e-6, OverheadSec: 5e-7, BytesPerSec: 1e9, PJPerByte: 500, PJPerMessage: 50000},
		Power: PowerSpec{BusyWatts: 12, IdleWatts: 7}, // ~60% of peak when idle
	}
}

// Petascale2009 models one rack-scale slice of a 2009 petascale system
// (Cray XT5 class): 8-core 2.3 GHz nodes, ~25 GB/s local DRAM, a ~6 µs / 2
// GB/s torus interconnect, 1024 nodes.
func Petascale2009() *Spec {
	return &Spec{
		Name:              "petascale2009",
		Nodes:             1024,
		CoresPerNode:      8,
		ClockHz:           2.3e9,
		FlopsPerCoreCycle: 4,
		PJPerFlop:         120,
		Levels: []LevelSpec{
			{Name: "L1", CapacityBytes: 64 << 10, LineBytes: 64, Assoc: 2, LatencyCycles: 3, PJPerByte: 0.8},
			{Name: "L2", CapacityBytes: 512 << 10, LineBytes: 64, Assoc: 16, LatencyCycles: 15, PJPerByte: 2.5},
			{Name: "L3", CapacityBytes: 6 << 20, LineBytes: 64, Assoc: 48, LatencyCycles: 40, PJPerByte: 10, Shared: true},
		},
		DRAM:  DRAMSpec{LatencyCycles: 230, BytesPerSec: 25.6e9, PJPerByte: 170},
		NUMA:  NUMASpec{Domains: 2, RemoteLatencyFactor: 1.7, RemotePJFactor: 1.5},
		Net:   NetSpec{AlphaSec: 6e-6, OverheadSec: 1e-6, BytesPerSec: 2e9, PJPerByte: 800, PJPerMessage: 200000},
		Power: PowerSpec{BusyWatts: 20, IdleWatts: 12},
	}
}

// Exascale models the 2008 exascale study's projected node: very many slow,
// efficient cores, ~10 pJ/flop, and a memory system whose relative cost of
// moving a byte — versus computing on it — is far worse than in 2009. This
// is the machine the keynote says software must be rewritten for.
func Exascale() *Spec {
	return &Spec{
		Name:              "exascale",
		Nodes:             4096,
		CoresPerNode:      1024,
		ClockHz:           1e9,
		FlopsPerCoreCycle: 2,
		PJPerFlop:         10,
		Levels: []LevelSpec{
			{Name: "L1", CapacityBytes: 32 << 10, LineBytes: 64, Assoc: 4, LatencyCycles: 2, PJPerByte: 0.3},
			{Name: "L2", CapacityBytes: 256 << 10, LineBytes: 64, Assoc: 8, LatencyCycles: 10, PJPerByte: 1.2},
			{Name: "LLC", CapacityBytes: 64 << 20, LineBytes: 64, Assoc: 16, LatencyCycles: 50, PJPerByte: 5, Shared: true},
		},
		// Stacked-DRAM-class bandwidth, but pJ/byte still dwarfs pJ/flop.
		DRAM:  DRAMSpec{LatencyCycles: 100, BytesPerSec: 400e9, PJPerByte: 30},
		Net:   NetSpec{AlphaSec: 5e-7, OverheadSec: 1e-7, BytesPerSec: 100e9, PJPerByte: 60, PJPerMessage: 20000},
		Power: PowerSpec{BusyWatts: 0.05, IdleWatts: 0.005}, // near-proportional by necessity
	}
}

// EnergyProportional returns the 2009 petascale node with an aggressive
// 10%-of-busy idle power, the ablation the keynote's "per Joule" argument
// asks for.
func EnergyProportional() *Spec {
	s := Petascale2009().WithProportionalPower(0.1)
	s.Name = "petascale2009-proportional"
	return s
}

// presets names the built-in machines and their constructors, in a stable
// presentation order. Each name is the Spec.Name its constructor sets.
var presets = []struct {
	name  string
	build func() *Spec
}{
	{"laptop2009", Laptop2009},
	{"petascale2009", Petascale2009},
	{"petascale2009-proportional", EnergyProportional},
	{"exascale", Exascale},
}

// Presets returns all built-in machines, in a stable presentation order.
func Presets() []*Spec {
	out := make([]*Spec, 0, len(presets))
	for _, p := range presets {
		out = append(out, p.build())
	}
	return out
}

// IsPreset reports whether name is a built-in machine, building none.
func IsPreset(name string) bool {
	for _, p := range presets {
		if p.name == name {
			return true
		}
	}
	return false
}

// Preset returns a fresh copy of the named preset, or nil if unknown. It
// builds only the preset it returns.
func Preset(name string) *Spec {
	for _, p := range presets {
		if p.name == name {
			return p.build()
		}
	}
	return nil
}
