package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"tenways/internal/machine"
)

func testSpec() machine.NetSpec {
	return machine.NetSpec{
		AlphaSec: 4e-6, OverheadSec: 1e-6, BytesPerSec: 2e9,
		PJPerByte: 800, PJPerMessage: 200000,
	}
}

func allTopos(n int) []Topology {
	return []Topology{
		NewFullyConnected(n),
		NewRing(n),
		NewTorus2D(4, n/4),
		NewFatTree2(n, 4),
		NewDragonfly(n, 4),
	}
}

func TestPathEndpoints(t *testing.T) {
	for _, topo := range allTopos(16) {
		for s := 0; s < topo.Nodes(); s++ {
			if p := topo.Path(s, s); len(p) != 0 {
				t.Errorf("%s: self path not empty", topo.Name())
			}
		}
		if p := topo.Path(0, topo.Nodes()-1); len(p) == 0 {
			t.Errorf("%s: distinct nodes need a non-empty path", topo.Name())
		}
	}
}

func TestPathLinkIDsInRange(t *testing.T) {
	for _, topo := range allTopos(16) {
		for s := 0; s < topo.Nodes(); s++ {
			for d := 0; d < topo.Nodes(); d++ {
				for _, l := range topo.Path(s, d) {
					if l < 0 || l >= topo.NumLinks() {
						t.Fatalf("%s: link %d out of range [0,%d)", topo.Name(), l, topo.NumLinks())
					}
				}
			}
		}
	}
}

func TestRingMinimalRouting(t *testing.T) {
	r := NewRing(8)
	if got := len(r.Path(0, 1)); got != 1 {
		t.Errorf("0->1 hops = %d", got)
	}
	if got := len(r.Path(0, 7)); got != 1 {
		t.Errorf("0->7 should go counter-clockwise, hops = %d", got)
	}
	if got := len(r.Path(0, 4)); got != 4 {
		t.Errorf("antipodal hops = %d, want 4", got)
	}
	// Distance is symmetric on a bidirectional ring.
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if len(r.Path(s, d)) != len(r.Path(d, s)) {
				t.Fatalf("asymmetric distance %d<->%d", s, d)
			}
		}
	}
}

func TestTorusRouting(t *testing.T) {
	to := NewTorus2D(4, 4)
	if got := len(to.Path(0, 5)); got != 2 { // one X hop + one Y hop
		t.Errorf("0->5 hops = %d, want 2", got)
	}
	// Max distance on a 4x4 torus is 2+2.
	max := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if h := len(to.Path(s, d)); h > max {
				max = h
			}
		}
	}
	if max != 4 {
		t.Errorf("diameter = %d, want 4", max)
	}
}

func TestTorusWrapAround(t *testing.T) {
	to := NewTorus2D(4, 4)
	// Column 0 to column 3 should wrap: 1 hop, not 3.
	if got := len(to.Path(0, 3)); got != 1 {
		t.Errorf("wrap path hops = %d, want 1", got)
	}
}

func TestFatTreeRouting(t *testing.T) {
	ft := NewFatTree2(16, 4)
	if got := len(ft.Path(0, 1)); got != 2 { // same leaf
		t.Errorf("intra-leaf hops = %d, want 2", got)
	}
	if got := len(ft.Path(0, 15)); got != 4 { // via root
		t.Errorf("inter-leaf hops = %d, want 4", got)
	}
}

func TestMsgTimeComponents(t *testing.T) {
	m := NewModel(testSpec(), NewFullyConnected(4))
	// One hop: alpha + 2o + bytes/bw.
	want := 4e-6 + 2e-6 + 1000/2e9
	if got := m.MsgTime(0, 1, 1000); math.Abs(got-want) > 1e-15 {
		t.Errorf("MsgTime = %g, want %g", got, want)
	}
	// Local message: only software overhead.
	if got := m.MsgTime(2, 2, 1000); got != 2e-6 {
		t.Errorf("local MsgTime = %g", got)
	}
}

func TestMsgTimeGrowsWithHops(t *testing.T) {
	m := NewModel(testSpec(), NewRing(16))
	near := m.MsgTime(0, 1, 64)
	far := m.MsgTime(0, 8, 64)
	if far <= near {
		t.Errorf("far (%g) should cost more than near (%g)", far, near)
	}
}

func TestMsgEnergyScalesWithHops(t *testing.T) {
	m := NewModel(testSpec(), NewRing(16))
	e1 := m.MsgEnergy(0, 1, 1024)
	e4 := m.MsgEnergy(0, 4, 1024)
	if e4 <= e1 {
		t.Errorf("4-hop energy (%g) should exceed 1-hop (%g)", e4, e1)
	}
	if m.MsgEnergy(3, 3, 1024) != 0 {
		t.Error("local transfer should cost no network energy")
	}
}

func TestMakespanContention(t *testing.T) {
	spec := testSpec()
	// On a ring, all-to-one funnels through the target's two links and
	// must be slower than the same volume spread on a fully connected net.
	ring := NewModel(spec, NewRing(8))
	fc := NewModel(spec, NewFullyConnected(8))
	var ts []Transfer
	for s := 1; s < 8; s++ {
		ts = append(ts, Transfer{Src: s, Dst: 0, Bytes: 1 << 20})
	}
	if ring.Makespan(ts) <= fc.Makespan(ts) {
		t.Errorf("ring makespan %g should exceed fully-connected %g",
			ring.Makespan(ts), fc.Makespan(ts))
	}
	if fc.Makespan(nil) != 0 {
		t.Error("empty batch should take no time")
	}
}

func TestMakespanAtLeastSingleTransfer(t *testing.T) {
	m := NewModel(testSpec(), NewTorus2D(4, 4))
	ts := []Transfer{{Src: 0, Dst: 15, Bytes: 4096}}
	if m.Makespan(ts) < m.MsgTime(0, 15, 4096) {
		t.Error("makespan below single uncongested transfer")
	}
}

// Property: for every topology, every path's links are valid and a message
// between distinct nodes takes at least alpha.
func TestTopologyPathProperty(t *testing.T) {
	f := func(srcRaw, dstRaw uint8, which uint8) bool {
		n := 16
		topo := allTopos(n)[int(which)%5]
		s := int(srcRaw) % n
		d := int(dstRaw) % n
		p := topo.Path(s, d)
		if s == d {
			return len(p) == 0
		}
		if len(p) == 0 {
			return false
		}
		for _, l := range p {
			if l < 0 || l >= topo.NumLinks() {
				return false
			}
		}
		m := NewModel(testSpec(), topo)
		return m.MsgTime(s, d, 1) >= testSpec().AlphaSec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDragonflyRouting(t *testing.T) {
	d := NewDragonfly(16, 4)
	if got := len(d.Path(0, 1)); got != 2 { // same group
		t.Errorf("intra-group hops = %d, want 2", got)
	}
	if got := len(d.Path(0, 15)); got != 3 { // via one global link
		t.Errorf("inter-group hops = %d, want 3", got)
	}
	for s := 0; s < 16; s++ {
		for dst := 0; dst < 16; dst++ {
			for _, l := range d.Path(s, dst) {
				if l < 0 || l >= d.NumLinks() {
					t.Fatalf("link %d out of range", l)
				}
			}
		}
	}
}

func TestDragonflyGlobalLinkIsBottleneck(t *testing.T) {
	// Adversarial traffic: every node of group 0 sends into group 1, so
	// all four transfers share the one 0->1 global link; spreading the
	// same four transfers over four distinct destination groups uses four
	// different global links and finishes faster.
	spec := testSpec()
	d := NewModel(spec, NewDragonfly(16, 4))
	var adversarial, spread []Transfer
	for i := 0; i < 4; i++ {
		adversarial = append(adversarial, Transfer{Src: i, Dst: 4 + i, Bytes: 1 << 20})
		spread = append(spread, Transfer{Src: i, Dst: (i + 1) * 4, Bytes: 1 << 20})
	}
	if d.Makespan(adversarial) <= d.Makespan(spread) {
		t.Fatalf("adversarial (%g) should exceed spread (%g)",
			d.Makespan(adversarial), d.Makespan(spread))
	}
}

func TestConstructorClamps(t *testing.T) {
	if NewFatTree2(8, 0).Radix != 2 {
		t.Fatal("fat tree radix not clamped")
	}
	if NewDragonfly(8, 1).GroupSize != 2 {
		t.Fatal("dragonfly group size not clamped")
	}
}
