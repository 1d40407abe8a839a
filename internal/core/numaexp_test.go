package core

import (
	"math"
	"testing"

	"tenways/internal/mem"
)

// F20 simulates each distinct trace once, at factor 1, and derives every
// placement's series from that run: the other remote-latency factors from
// the remote line count, and the interleaved series from the parallel-init
// trace simulated under first-touch. That is exact only while the NUMA
// penalty is additive per remote line and a placement never changes cache
// state; this test compares each derived point with a direct simulation
// under the placement itself and fails as soon as either stops holding
// (for example if bandwidth saturation were modelled).
func TestNUMASweepMatchesDirectSimulation(t *testing.T) {
	cfg := Config{Quick: true}
	const bytes = 8 << 20 // exceeds the default machine's 6 MiB LLC
	const rf = 4
	line := int64(cfg.machine().Levels[0].LineBytes)
	h1, err := numaHierarchy(cfg, 1, mem.PlacementFirstTouch)
	if err != nil {
		t.Fatal(err)
	}
	for _, serialInit := range []bool{false, true} {
		numaStream(h1, serialInit, bytes)
		for _, p := range []mem.Placement{mem.PlacementFirstTouch, mem.PlacementInterleave} {
			direct, err := numaHierarchy(cfg, rf, p)
			if err != nil {
				t.Fatal(err)
			}
			numaStream(direct, serialInit, bytes)
			remote := h1.RemoteLines(p)
			if got := direct.Stats().RemoteDRAMBytes / line; got != remote {
				t.Fatalf("serial init %v, placement %d: %d remote lines simulated directly at factor %d, %d derived",
					serialInit, p, got, rf, remote)
			}
			if p == mem.PlacementInterleave && remote == 0 {
				t.Fatalf("serial init %v: no interleaved remote lines, so the comparison proves nothing", serialInit)
			}
			derived := numaSweep(cfg.machine(), h1.TimeSec(), remote, []float64{rf})[0]
			if rel := math.Abs(derived-direct.TimeSec()) / direct.TimeSec(); rel > 1e-12 {
				t.Errorf("serial init %v, placement %d: derived %.17g s, direct %.17g s (relative error %.3g)",
					serialInit, p, derived, direct.TimeSec(), rel)
			}
		}
	}
}
