package tune

import (
	"testing"

	"tenways/internal/machine"
)

// TestQuickAndFullDontShareCacheEntries pins the daemon-shaped bug that
// tuning exposed: a long-lived shared Cache served a quick tunable's point
// costs to the full variant of the same ID. The quick and full variants
// model different workloads, so the default cache key carries the quick
// flag, and the full tune after a quick tune must do its own evaluations
// and see different costs. Keys are axis indices, so the test needs a
// tunable whose quick and full axes coincide: T3-allreduce (same
// algorithms; P=16 and 1024 words quick, P=64 and 16384 full). Where the
// full axis is longer (F13-c), a key without the quick flag still leaves
// the extra points to evaluate, and the test would pass anyway.
func TestQuickAndFullDontShareCacheEntries(t *testing.T) {
	m := machine.Petascale2009()
	cache := NewCache()

	pick := func(quick bool) Tunable {
		t.Helper()
		tn, err := ByID("T3-allreduce", quick)
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
