package core

import (
	"math"
	"testing"

	"tenways/internal/mem"
)

// F20 simulates each placement once and derives the other remote-latency
// factors from the remote line count. That is exact only while the NUMA
// penalty is additive per remote line; this test fails as soon as it is
// not (for example if bandwidth saturation were modelled).
func TestNUMASweepMatchesDirectSimulation(t *testing.T) {
	cfg := Config{Quick: true}
	const bytes = 8 << 20 // exceeds the default machine's 6 MiB LLC
	const rf = 4
	for _, p := range numaPlacements {
		t1, remote, err := numaStream(cfg, 1, p.placement, p.serialInit, bytes)
		if err != nil {
			t.Fatal(err)
		}
		direct, directRemote, err := numaStream(cfg, rf, p.placement, p.serialInit, bytes)
		if err != nil {
			t.Fatal(err)
		}
		if directRemote != remote {
			t.Fatalf("%s: remote lines %d at factor %d, %d at factor 1", p.name, directRemote, rf, remote)
		}
		derived := numaSweep(cfg.machine(), t1, remote, []float64{rf})[0]
		if rel := math.Abs(derived-direct) / direct; rel > 1e-12 {
			t.Errorf("%s: derived %.17g s, direct %.17g s (relative error %.3g)", p.name, derived, direct, rel)
		}
		if p.placement == mem.PlacementInterleave && remote == 0 {
			t.Fatalf("%s: no remote lines, so the comparison proves nothing", p.name)
		}
	}
}
