package machine

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, s := range Presets() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	base := Laptop2009()
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero nodes", func(s *Spec) { s.Nodes = 0 }},
		{"zero cores", func(s *Spec) { s.CoresPerNode = 0 }},
		{"zero clock", func(s *Spec) { s.ClockHz = 0 }},
		{"zero issue", func(s *Spec) { s.FlopsPerCoreCycle = 0 }},
		{"zero dram bw", func(s *Spec) { s.DRAM.BytesPerSec = 0 }},
		{"bad line", func(s *Spec) { s.Levels[0].LineBytes = 0 }},
		{"capacity not multiple", func(s *Spec) { s.Levels[0].CapacityBytes = 100 }},
		{"zero sets", func(s *Spec) { s.Levels[0].CapacityBytes, s.Levels[0].Assoc = 4*64, 8 }},
		{"too wide", func(s *Spec) { s.Levels[0].Assoc = MaxAssoc + 1 }},
		{"multi-node no net", func(s *Spec) { s.Nodes = 2; s.Net.BytesPerSec = 0 }},
	}
	for _, c := range cases {
		s := *base
		s.Levels = append([]LevelSpec(nil), base.Levels...)
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// A level may be as wide as the cache simulator's per-set valid mask and
// no wider; Validate says which level and why instead of letting the
// simulator build sets it cannot track.
func TestValidateBoundsAssoc(t *testing.T) {
	s := Laptop2009()
	l := &s.Levels[len(s.Levels)-1]
	l.Assoc = MaxAssoc
	if err := s.Validate(); err != nil {
		t.Fatalf("%d ways: %v", MaxAssoc, err)
	}
	l.Assoc = MaxAssoc + 1
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "65-way") || !strings.Contains(err.Error(), l.Name) {
		t.Fatalf("%d ways: got %v, want an error naming the level and its width", MaxAssoc+1, err)
	}
}

func TestDerivedRates(t *testing.T) {
	s := Laptop2009()
	if got, want := s.PeakFlopsPerCore(), 10e9; got != want {
		t.Errorf("PeakFlopsPerCore = %g, want %g", got, want)
	}
	if got, want := s.PeakFlopsPerNode(), 20e9; got != want {
		t.Errorf("PeakFlopsPerNode = %g, want %g", got, want)
	}
	if got := s.MachineBalance(); math.Abs(got-8.5e9/20e9) > 1e-12 {
		t.Errorf("MachineBalance = %g", got)
	}
	if got := s.RidgeIntensity(); math.Abs(got*s.MachineBalance()-1) > 1e-12 {
		t.Errorf("ridge * balance != 1: %g", got*s.MachineBalance())
	}
}

func TestCostFunctions(t *testing.T) {
	s := Petascale2009()
	if got := s.FlopTimeSec(s.PeakFlopsPerCore()); math.Abs(got-1) > 1e-12 {
		t.Errorf("one second of flops took %g s", got)
	}
	if got := s.FlopEnergyJ(1e12); math.Abs(got-120) > 1e-9 {
		t.Errorf("1e12 flops = %g J, want 120", got)
	}
	// Message time must be monotone in size and bounded below by alpha.
	t1 := s.MsgTimeSec(8)
	t2 := s.MsgTimeSec(1 << 20)
	if t1 >= t2 {
		t.Errorf("message time not monotone: %g >= %g", t1, t2)
	}
	if t1 < s.Net.AlphaSec {
		t.Errorf("message time below alpha: %g", t1)
	}
	// Half-bandwidth point: a message of n½ bytes spends equal time in
	// latency and bandwidth terms.
	n := s.HalfBandwidthBytes()
	lat := s.Net.AlphaSec + 2*s.Net.OverheadSec
	if math.Abs(n/s.Net.BytesPerSec-lat) > 1e-15 {
		t.Errorf("half-bandwidth identity violated")
	}
	if e := s.MsgEnergyJ(0); e != s.Net.PJPerMessage*1e-12 {
		t.Errorf("zero-byte message energy = %g", e)
	}
}

func TestWithProportionalPower(t *testing.T) {
	a := Petascale2009()
	b := a.WithProportionalPower(0.1)
	if math.Abs(b.Power.IdleWatts-0.1*a.Power.BusyWatts) > 1e-12 {
		t.Fatalf("idle watts = %g", b.Power.IdleWatts)
	}
	if a.Power.IdleWatts == b.Power.IdleWatts {
		t.Fatal("original mutated")
	}
}

func TestPresetLookup(t *testing.T) {
	if Preset("laptop2009") == nil {
		t.Fatal("laptop2009 missing")
	}
	if Preset("nope") != nil {
		t.Fatal("unknown preset should be nil")
	}
	seen := map[string]bool{}
	for _, s := range Presets() {
		if seen[s.Name] {
			t.Fatalf("duplicate preset name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestPresetBuildsFreshSpec: Preset(name) is the spec Presets() lists under
// that name, built anew on every call, so a caller may modify it; IsPreset
// knows exactly the names Preset builds.
func TestPresetBuildsFreshSpec(t *testing.T) {
	for _, want := range Presets() {
		got := Preset(want.Name)
		if !IsPreset(want.Name) {
			t.Errorf("IsPreset(%q) = false", want.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Preset(%q) = %+v, want %+v", want.Name, got, want)
		}
		if got == want || got == Preset(want.Name) {
			t.Errorf("Preset(%q) returned a shared pointer", want.Name)
		}
		if &got.Levels[0] == &want.Levels[0] {
			t.Errorf("Preset(%q) shares its Levels", want.Name)
		}
	}
	for _, name := range []string{"nope", "", "Laptop2009"} {
		if s := Preset(name); s != nil || IsPreset(name) {
			t.Errorf("Preset(%q) = %+v, IsPreset = %v; want nil, false", name, s, IsPreset(name))
		}
	}
}

func TestKeynoteRatiosHold(t *testing.T) {
	// The argument of the talk: moving a byte from DRAM costs much more
	// energy than a flop, and the gap widens toward exascale.
	for _, s := range []*Spec{Laptop2009(), Petascale2009(), Exascale()} {
		bytesVsFlop := s.DRAM.PJPerByte * 8 / s.PJPerFlop // per 64-bit word
		if bytesVsFlop < 2 {
			t.Errorf("%s: DRAM word should cost more than a flop (ratio %g)", s.Name, bytesVsFlop)
		}
	}
	r2009 := Petascale2009().DRAM.PJPerByte * 8 / Petascale2009().PJPerFlop
	rExa := Exascale().DRAM.PJPerByte * 8 / Exascale().PJPerFlop
	if rExa <= r2009 {
		t.Errorf("data movement should be relatively more expensive at exascale: 2009=%g exa=%g", r2009, rExa)
	}
	// 2009 machines are not energy proportional; exascale must be closer.
	p2009 := Petascale2009().Power.IdleWatts / Petascale2009().Power.BusyWatts
	pExa := Exascale().Power.IdleWatts / Exascale().Power.BusyWatts
	if p2009 < 0.5 {
		t.Errorf("2009 idle fraction should be >= 0.5, got %g", p2009)
	}
	if pExa >= p2009 {
		t.Errorf("exascale should be more proportional: %g vs %g", pExa, p2009)
	}
}

func TestLineBytesFallback(t *testing.T) {
	s := &Spec{Nodes: 1, CoresPerNode: 1, ClockHz: 1e9, FlopsPerCoreCycle: 1,
		DRAM: DRAMSpec{BytesPerSec: 1e9}}
	if s.LineBytes() != 64 {
		t.Fatalf("fallback line size = %d", s.LineBytes())
	}
	if Laptop2009().LineBytes() != 64 {
		t.Fatalf("laptop line size = %d", Laptop2009().LineBytes())
	}
}

func TestIdleBusyEnergy(t *testing.T) {
	s := Petascale2009()
	if e := s.IdleEnergyJ(2); math.Abs(e-2*s.Power.IdleWatts) > 1e-12 {
		t.Errorf("idle energy = %g", e)
	}
	if e := s.BusyEnergyJ(2); math.Abs(e-2*s.Power.BusyWatts) > 1e-12 {
		t.Errorf("busy energy = %g", e)
	}
}

func TestNUMASpecUniform(t *testing.T) {
	if !(NUMASpec{}).Uniform() || !(NUMASpec{Domains: 1}).Uniform() {
		t.Fatal("0/1 domains should be uniform")
	}
	if (NUMASpec{Domains: 2}).Uniform() {
		t.Fatal("2 domains is not uniform")
	}
	if machine := Petascale2009(); machine.NUMA.Uniform() {
		t.Fatal("petascale preset should be NUMA")
	}
	if machine := Laptop2009(); !machine.NUMA.Uniform() {
		t.Fatal("laptop preset should be UMA")
	}
}
