package tune

import (
	"testing"

	"tenways/internal/machine"
)

// TestQuickAndFullDontShareCacheEntries pins the daemon-shaped bug: a
// long-lived shared Cache served a quick tunable's point costs to the full
// variant of the same ID (same axis indices, different modeled workload).
// With Quick in the default cache key, the full tune after a quick tune
// must do its own evaluations and see different costs.
func TestQuickAndFullDontShareCacheEntries(t *testing.T) {
	m := machine.Petascale2009()
	cache := NewCache()

	pick := func(quick bool) Tunable {
		t.Helper()
		tn, err := ByID("F28-parts", quick)
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}

	quick, err := pick(true).Tune(m, Options{Cache: cache, Strategy: Grid{}})
	if err != nil {
		t.Fatal(err)
	}
	if quick.Evaluations == 0 {
		t.Fatal("quick tune did no evaluations")
	}

	full, err := pick(false).Tune(m, Options{Cache: cache, Strategy: Grid{}})
	if err != nil {
		t.Fatal(err)
	}
	if full.Evaluations == 0 {
		t.Fatalf("full tune after quick tune did 0 evaluations (%d cache hits): the cache served the quick variant's costs", full.CacheHits)
	}
	if full.Best.Cost.Seconds == quick.Best.Cost.Seconds {
		t.Fatalf("full and quick best costs identical (%g): the variants are not being modeled separately", full.Best.Cost.Seconds)
	}

	// Same variant through the same cache stays free, as before.
	again, err := pick(false).Tune(m, Options{Cache: cache, Strategy: Grid{}})
	if err != nil {
		t.Fatal(err)
	}
	if again.Evaluations != 0 {
		t.Fatalf("repeat full tune cost %d evaluations, want 0", again.Evaluations)
	}
}

// TestF28TunablesShape sanity-checks the new engine tunables: the lookahead
// divisor tunes back to 1 (the widest legal window) and the partition
// optimum is at least the machine's core count on every preset.
func TestF28TunablesShape(t *testing.T) {
	for _, m := range machine.Presets() {
		look, err := ByID("F28-look", true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := look.Tune(m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if div := look.Space.Int(res.Best.Point, "win-div"); div != 1 {
			t.Errorf("%s: tuned window divisor = %d, want 1 (narrower windows only add barriers)", m.Name, div)
		}

		parts, err := ByID("F28-parts", true)
		if err != nil {
			t.Fatal(err)
		}
		res, err = parts.Tune(m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if p := parts.Space.Int(res.Best.Point, "parts"); p <= 1 {
			t.Errorf("%s: tuned partition count %d, want > 1 (partitioning should beat the single heap)", m.Name, p)
		}
		serial, err := parts.Objective(m)(Point{0})
		if err != nil {
			t.Fatalf("%s serial point: %v", m.Name, err)
		}
		if res.Best.Cost.Seconds >= serial.Seconds {
			t.Errorf("%s: tuned cost %g no better than serial %g", m.Name, res.Best.Cost.Seconds, serial.Seconds)
		}
	}
}
