package mem

import (
	"math/rand"
	"testing"

	"tenways/internal/energy"
	"tenways/internal/machine"
)

// numaSpec returns a 2-domain machine with a tiny cache so accesses reach
// DRAM.
func numaSpec() *machine.Spec {
	s := machine.Petascale2009()
	s.Levels = []machine.LevelSpec{
		{Name: "L1", CapacityBytes: 4 * 64, LineBytes: 64, Assoc: 2, LatencyCycles: 2, PJPerByte: 1},
	}
	return s
}

func TestNUMAFirstTouchKeepsOwnPartitionLocal(t *testing.T) {
	s := numaSpec()
	h, err := NewHierarchy(s, 4) // cores 0,1 -> domain 0; cores 2,3 -> domain 1
	if err != nil {
		t.Fatal(err)
	}
	h.EnableNUMA(PlacementFirstTouch)
	// Each core touches its own 64 KiB partition.
	const part = 64 << 10
	for c := 0; c < 4; c++ {
		base := uint64(c * part)
		for a := uint64(0); a < part; a += 64 {
			h.Read(c, base+a, 8)
		}
	}
	st := h.Stats()
	if st.RemoteDRAMBytes != 0 {
		t.Fatalf("first-touch own-partition access should be all local, remote = %d",
			st.RemoteDRAMBytes)
	}
	if st.LocalDRAMBytes == 0 {
		t.Fatal("no local bytes recorded")
	}
}

func TestNUMAFirstTouchSerialInitPathology(t *testing.T) {
	s := numaSpec()
	h, err := NewHierarchy(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.EnableNUMA(PlacementFirstTouch)
	const part = 64 << 10
	// Rank 0 initialises everything (the classic bug): all pages homed in
	// domain 0.
	for a := uint64(0); a < 4*part; a += 64 {
		h.Write(0, a, 8)
	}
	// Now cores 2 and 3 (domain 1) read their partitions: all remote.
	before := h.Stats().RemoteDRAMBytes
	for c := 2; c < 4; c++ {
		base := uint64(c * part)
		for a := uint64(0); a < part; a += 64 {
			h.Read(c, base+a, 8)
		}
	}
	st := h.Stats()
	if st.RemoteDRAMBytes-before == 0 {
		t.Fatal("serial-init pages should be remote for domain-1 cores")
	}
}

func TestNUMAInterleaveHalfRemote(t *testing.T) {
	s := numaSpec()
	h, err := NewHierarchy(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.EnableNUMA(PlacementInterleave)
	for a := uint64(0); a < 1<<20; a += 64 {
		h.Read(0, a, 8)
	}
	st := h.Stats()
	total := st.LocalDRAMBytes + st.RemoteDRAMBytes
	if total == 0 {
		t.Fatal("no classified traffic")
	}
	frac := float64(st.RemoteDRAMBytes) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("interleaved remote fraction = %g, want ~0.5", frac)
	}
}

func TestNUMARemoteCostsMoreTimeAndEnergy(t *testing.T) {
	s := numaSpec()
	run := func(placement Placement, core int) (float64, float64) {
		h, err := NewHierarchy(s, 4)
		if err != nil {
			t.Fatal(err)
		}
		h.EnableNUMA(placement)
		// Home all pages in domain 0 by first touch from core 0 (or
		// interleave), then stream from the chosen core.
		for a := uint64(0); a < 1<<20; a += 64 {
			h.Read(0, a, 8)
		}
		h2 := h // continue on same hierarchy: stream again from `core`
		for a := uint64(0); a < 1<<20; a += 64 {
			h2.Read(core, a, 8)
		}
		m := energy.NewMeter()
		h2.ChargeEnergy(m)
		return h2.Stats().TotalCycles, m.Total()
	}
	localCycles, localJ := run(PlacementFirstTouch, 1)   // same domain as initialiser
	remoteCycles, remoteJ := run(PlacementFirstTouch, 3) // other domain
	if remoteCycles <= localCycles {
		t.Fatalf("remote access should cost more cycles: %g vs %g", remoteCycles, localCycles)
	}
	if remoteJ <= localJ {
		t.Fatalf("remote access should cost more energy: %g vs %g", remoteJ, localJ)
	}
}

func TestNUMANoopOnUMA(t *testing.T) {
	s := machine.Laptop2009() // UMA
	h, err := NewHierarchy(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.EnableNUMA(PlacementInterleave)
	h.Read(0, 0, 8)
	st := h.Stats()
	if st.LocalDRAMBytes != 0 || st.RemoteDRAMBytes != 0 {
		t.Fatal("UMA machine should not classify NUMA traffic")
	}
}

// A placement only labels demand DRAM fetches, so one run counts the
// remote lines of both: RemoteLines(p) under either placement in force
// equals the remote bytes a run under p itself reports, after a ResetStats
// as from the start.
func TestRemoteLinesUnderEitherPlacement(t *testing.T) {
	placements := []Placement{PlacementFirstTouch, PlacementInterleave}
	run := func(p Placement) *Hierarchy {
		h, err := NewHierarchy(numaSpec(), 4)
		if err != nil {
			t.Fatal(err)
		}
		h.EnableNUMA(p)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20000; i++ {
			if i == 5000 {
				h.ResetStats()
			}
			core, addr := rng.Intn(4), uint64(rng.Intn(256<<10))
			if rng.Intn(3) == 0 {
				h.Write(core, addr, 8)
			} else {
				h.Read(core, addr, 8)
			}
		}
		return h
	}
	direct := map[Placement]int64{}
	for _, p := range placements {
		direct[p] = run(p).Stats().RemoteDRAMBytes / 64
		if direct[p] == 0 {
			t.Fatalf("placement %d: no remote lines, so the comparison proves nothing", p)
		}
	}
	if direct[PlacementFirstTouch] == direct[PlacementInterleave] {
		t.Fatalf("both placements fetched %d remote lines; the trace does not tell them apart", direct[PlacementFirstTouch])
	}
	for _, inForce := range placements {
		h := run(inForce)
		for _, p := range placements {
			if got := h.RemoteLines(p); got != direct[p] {
				t.Errorf("placement %d in force: RemoteLines(%d) = %d, a run under %d fetched %d", inForce, p, got, p, direct[p])
			}
		}
	}
	h, err := NewHierarchy(numaSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Read(0, 0, 8)
	if h.RemoteLines(PlacementInterleave) != 0 || h.RemoteLines(PlacementFirstTouch) != 0 {
		t.Fatal("RemoteLines counted with NUMA accounting off")
	}
}
