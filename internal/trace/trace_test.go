package trace

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAndBreakdown(t *testing.T) {
	r := NewRecorder(2)
	r.Add(0, Compute, 100*time.Millisecond)
	r.Add(0, SyncWait, 50*time.Millisecond)
	r.Add(1, Compute, 200*time.Millisecond)
	b := r.Breakdown()
	if b.Of(Compute) != 300*time.Millisecond {
		t.Fatalf("compute = %v", b.Of(Compute))
	}
	if b.Of(SyncWait) != 50*time.Millisecond {
		t.Fatalf("sync = %v", b.Of(SyncWait))
	}
	if b.Sum() != 350*time.Millisecond {
		t.Fatalf("sum = %v", b.Sum())
	}
}

func TestFraction(t *testing.T) {
	r := NewRecorder(1)
	r.Add(0, Compute, 75*time.Millisecond)
	r.Add(0, SyncWait, 25*time.Millisecond)
	b := r.Breakdown()
	if math.Abs(b.Fraction(SyncWait)-0.25) > 1e-9 {
		t.Fatalf("fraction = %g", b.Fraction(SyncWait))
	}
	var empty Breakdown
	if empty.Fraction(Compute) != 0 {
		t.Fatal("empty fraction should be 0")
	}
}

func TestImbalance(t *testing.T) {
	r := NewRecorder(2)
	r.Add(0, Compute, 300*time.Millisecond)
	r.Add(1, Compute, 100*time.Millisecond)
	b := r.Breakdown()
	// mean=200ms, max=300ms -> 0.5
	if math.Abs(b.Imbalance()-0.5) > 1e-9 {
		t.Fatalf("imbalance = %g", b.Imbalance())
	}
	balanced := NewRecorder(2)
	balanced.Add(0, Compute, 100*time.Millisecond)
	balanced.Add(1, Compute, 100*time.Millisecond)
	if got := balanced.Breakdown().Imbalance(); math.Abs(got) > 1e-9 {
		t.Fatalf("balanced imbalance = %g", got)
	}
	if (Breakdown{}).Imbalance() != 0 {
		t.Fatal("empty imbalance should be 0")
	}
}

func TestImbalanceCountsSerialAsBusy(t *testing.T) {
	r := NewRecorder(2)
	r.Add(0, Serial, 100*time.Millisecond)
	r.Add(1, Compute, 100*time.Millisecond)
	if got := r.Breakdown().Imbalance(); math.Abs(got) > 1e-9 {
		t.Fatalf("imbalance = %g", got)
	}
}

func TestConcurrentWorkers(t *testing.T) {
	const n = 8
	r := NewRecorder(n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add(w, Compute, time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	b := r.Breakdown()
	if b.Of(Compute) != n*1000*time.Microsecond {
		t.Fatalf("compute = %v", b.Of(Compute))
	}
}

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		Compute: "compute", SyncWait: "sync-wait", CommWait: "comm-wait",
		Steal: "steal", Serial: "serial", Idle: "idle", Noise: "noise",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if !strings.HasPrefix(Category(99).String(), "category(") {
		t.Error("unknown category string")
	}
	if len(Categories()) != int(numCategories) {
		t.Errorf("Categories() misses entries")
	}
}

// TestCategoriesAllNamed guards the String switch against a category being
// added to Categories() without a name: every listed category must render
// something other than the default "category(N)" fallback, and names must
// be unique.
func TestCategoriesAllNamed(t *testing.T) {
	seen := map[string]Category{}
	for _, c := range Categories() {
		s := c.String()
		if strings.HasPrefix(s, "category(") {
			t.Errorf("category %d has no name (got %q)", c, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("categories %d and %d share the name %q", prev, c, s)
		}
		seen[s] = c
	}
}

func TestBreakdownString(t *testing.T) {
	r := NewRecorder(1)
	r.Add(0, SyncWait, 10*time.Millisecond)
	s := r.Breakdown().String()
	if !strings.Contains(s, "sync-wait") || !strings.Contains(s, "wall=") {
		t.Fatalf("string = %q", s)
	}
}

func TestWallClockAdvances(t *testing.T) {
	r := NewRecorder(1)
	time.Sleep(2 * time.Millisecond)
	if r.Breakdown().Wall < time.Millisecond {
		t.Fatal("wall clock did not advance")
	}
}
