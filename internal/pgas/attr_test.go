package pgas

import (
	"math"
	"testing"
	"time"

	"tenways/internal/trace"
)

func durSecs(d time.Duration) float64 { return float64(d) / float64(time.Second) }

func TestBreakdownComputeOnly(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	end, err := w.Run(func(r *Rank) { r.Lapse(0.5) })
	if err != nil {
		t.Fatal(err)
	}
	b := w.Breakdown(end)
	if math.Abs(durSecs(b.Of(trace.Compute))-1.0) > 1e-9 {
		t.Fatalf("compute = %v", b.Of(trace.Compute))
	}
	if b.Of(trace.CommWait) != 0 || b.Of(trace.SyncWait) != 0 {
		t.Fatalf("unexpected waits: %v", b)
	}
}

func TestBreakdownCommWait(t *testing.T) {
	s := spec()
	w := NewWorld(2, s, nil, nil)
	end, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Lapse(1e-3)
			r.Signal(1, "go")
		} else {
			r.WaitSignal("go", 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b := w.Breakdown(end)
	// Rank 1 waited ~the whole run.
	waited := durSecs(b.PerWorker[1].ByCategory[trace.CommWait])
	if waited < 0.9e-3 {
		t.Fatalf("rank 1 comm-wait = %g, want ~1ms", waited)
	}
}

func TestBreakdownSyncSection(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	end, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Lapse(2e-3)
			r.Signal(1, "bar")
		} else {
			r.Sync(func() { r.WaitSignal("bar", 1) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b := w.Breakdown(end)
	if b.PerWorker[1].ByCategory[trace.SyncWait] == 0 {
		t.Fatal("Sync section wait not attributed to sync-wait")
	}
	if b.PerWorker[1].ByCategory[trace.CommWait] != 0 {
		t.Fatal("Sync section wait leaked into comm-wait")
	}
}

func TestBreakdownIdleResidual(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	end, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Lapse(1e-3)
		}
		// Rank 1 does nothing: its whole run is idle residual.
	})
	if err != nil {
		t.Fatal(err)
	}
	b := w.Breakdown(end)
	if durSecs(b.PerWorker[1].ByCategory[trace.Idle]) < 0.9e-3 {
		t.Fatalf("idle residual = %v", b.PerWorker[1].ByCategory[trace.Idle])
	}
}

func TestBreakdownHandleWaitIsCommWait(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	w.Alloc("x", 4096)
	end, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			h := r.PutAsync(1, "x", 0, make([]float64, 4096))
			h.Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b := w.Breakdown(end)
	if b.PerWorker[0].ByCategory[trace.CommWait] == 0 {
		t.Fatal("handle wait not attributed")
	}
}

func TestBreakdownSpinCountsAsWait(t *testing.T) {
	w := NewWorld(1, spec(), nil, nil)
	end, err := w.Run(func(r *Rank) { r.Spin(1e-3) })
	if err != nil {
		t.Fatal(err)
	}
	b := w.Breakdown(end)
	if b.Of(trace.CommWait) == 0 {
		t.Fatal("spin should count as waiting")
	}
	if b.Of(trace.Compute) != 0 {
		t.Fatal("spin is not useful compute")
	}
}

// fixedPerturber injects a constant extra delay after every busy period on
// one rank — the minimal Perturber for attribution tests.
type fixedPerturber struct {
	rank  int
	extra float64
}

func (f fixedPerturber) ComputeDelay(rank int, now, d float64) float64 {
	if rank == f.rank {
		return f.extra
	}
	return 0
}

func TestPerturberChargesNoise(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	w.SetPerturber(fixedPerturber{rank: 1, extra: 2e-3})
	end, err := w.Run(func(r *Rank) { r.Lapse(1e-3) })
	if err != nil {
		t.Fatal(err)
	}
	b := w.Breakdown(end)
	if got := durSecs(b.PerWorker[1].ByCategory[trace.Noise]); math.Abs(got-2e-3) > 1e-9 {
		t.Fatalf("rank 1 noise = %g, want 2e-3", got)
	}
	if b.PerWorker[0].ByCategory[trace.Noise] != 0 {
		t.Fatal("unperturbed rank charged noise")
	}
	if got := durSecs(b.PerWorker[1].ByCategory[trace.Compute]); math.Abs(got-1e-3) > 1e-9 {
		t.Fatalf("noise leaked into compute: %g", got)
	}
	// The injected delay stretches the makespan.
	if end < 3e-3-1e-9 {
		t.Fatalf("makespan %g did not absorb injected delay", end)
	}
}

func TestNilPerturberIdentical(t *testing.T) {
	run := func(arm bool) float64 {
		w := NewWorld(2, spec(), nil, nil)
		if arm {
			w.SetPerturber(nil)
		}
		end, err := w.Run(func(r *Rank) { r.Lapse(1e-3) })
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("nil perturber changed the run: %g vs %g", a, b)
	}
}
