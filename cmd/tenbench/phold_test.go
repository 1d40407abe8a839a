package main

import (
	"testing"

	"tenways/internal/pdes"
)

// PHOLD must give byte-identical results at any partitioning: the pdes
// workloads check every rep against a one-partition reference.
func TestPHOLDPartitionIndependent(t *testing.T) {
	run := func(parts, workers int) (pdesOutcome, pdes.Result) {
		p := newPHOLD(1<<10, 7, pholdLookahead, 30e-6)
		res, err := pdes.Run(p, pdes.Config{Lookahead: pholdLookahead, Partitions: parts, Workers: workers})
		if err != nil {
			t.Fatalf("parts=%d workers=%d: %v", parts, workers, err)
		}
		return pdesOutcome{events: res.Events, virtual: res.VirtualTime, checksum: p.checksum()}, res
	}
	ref, _ := run(1, 1)
	if ref.events < 4<<10 {
		t.Fatalf("reference handled %d events, want at least the initial population", ref.events)
	}
	for _, c := range [][2]int{{8, 1}, {8, 4}, {3, 2}} {
		got, res := run(c[0], c[1])
		if got != ref {
			t.Errorf("parts=%d workers=%d: %v, want %v", c[0], c[1], got, ref)
		}
		if c[0] > 1 && res.CrossEvents == 0 {
			t.Errorf("parts=%d: no cross-partition events; PHOLD should exercise the exchange", c[0])
		}
	}
}

// The seed changes the traffic, so it changes the checksum.
func TestPHOLDSeedMatters(t *testing.T) {
	sum := func(seed uint64) uint64 {
		p := newPHOLD(1<<8, seed, pholdLookahead, 20e-6)
		if _, err := pdes.Run(p, pdes.Config{Lookahead: pholdLookahead}); err != nil {
			t.Fatal(err)
		}
		return p.checksum()
	}
	if sum(1) == sum(2) {
		t.Error("seeds 1 and 2 gave the same checksum")
	}
}
