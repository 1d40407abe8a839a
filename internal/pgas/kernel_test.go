package pgas

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"tenways/internal/obs"
)

// runKernel runs body on n procs of a bare kernel, outside any World.
func runKernel(n int, body func(k *kernel, p *proc)) (float64, error) {
	k := &kernel{}
	return k.run(n, 1e-6, nil, func(p *proc) { body(k, p) })
}

func TestSingleProcAdvance(t *testing.T) {
	end, err := runKernel(1, func(_ *kernel, p *proc) {
		p.advance(1.5)
		p.advance(0.5)
	})
	if err != nil || end != 2 {
		t.Fatalf("end = %g, %v; want 2", end, err)
	}
}

func TestAdvanceToPastIsNoop(t *testing.T) {
	end, err := runKernel(1, func(_ *kernel, p *proc) {
		p.advance(5)
		p.advanceTo(3) // in the past: no-op
		p.advanceTo(7)
	})
	if err != nil || end != 7 {
		t.Fatalf("end = %g, %v; want 7", end, err)
	}
}

func TestNegativeAdvancePanicsIntoError(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			r.Idle(-1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 panicked: pgas: negative advance -1") {
		t.Fatalf("got %v, want rank 1's negative-advance panic", err)
	}
}

func TestZeroProcsRejected(t *testing.T) {
	if _, err := NewWorld(0, spec(), nil, nil).Run(func(*Rank) {}); err == nil {
		t.Fatal("expected an error for a world of 0 ranks")
	}
}

// TestProcsInterleaveDeterministically: ranks that reach the same virtual
// time run in the order their resumptions were emitted — here rank order,
// every round.
func TestProcsInterleaveDeterministically(t *testing.T) {
	var order []int
	w := NewWorld(3, spec(), nil, nil)
	if _, err := w.Run(func(r *Rank) {
		for i := 0; i < 3; i++ {
			r.Lapse(1e-3)
			order = append(order, r.ID())
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(order); got != 9 {
		t.Fatalf("%d steps, want 9", got)
	}
	for i, id := range order {
		if id != i%3 {
			t.Fatalf("order = %v, want 0,1,2 every round", order)
		}
	}
}

func TestYieldRoundRobinsEqualTimeProcs(t *testing.T) {
	var order []int
	_, err := runKernel(2, func(_ *kernel, p *proc) {
		for i := 0; i < 2; i++ {
			order = append(order, p.id)
			p.advance(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 0 || order[3] != 1 {
		t.Fatalf("order = %v, want [0 1 0 1]", order)
	}
}

func TestAtClosureRunsAtScheduledTime(t *testing.T) {
	fired := -1.0
	_, err := runKernel(1, func(k *kernel, p *proc) {
		k.at(2.5, func() { fired = k.now })
		p.advance(5)
	})
	if err != nil || fired != 2.5 {
		t.Fatalf("closure fired at %g (%v), want 2.5", fired, err)
	}
}

// TestAtInPastClampsToNow: a delivery scheduled in the past runs at now.
func TestAtInPastClampsToNow(t *testing.T) {
	fired := -1.0
	_, err := runKernel(1, func(k *kernel, p *proc) {
		p.advance(3)
		k.at(1, func() { fired = k.now })
		p.advance(1)
	})
	if err != nil || fired != 3 {
		t.Fatalf("past closure fired at %g (%v), want 3", fired, err)
	}
}

// TestCondBroadcastWakesAll: every proc blocked on a cond wakes at the
// broadcast's time, in the order it blocked.
func TestCondBroadcastWakesAll(t *testing.T) {
	var c cond
	var woke []int
	_, err := runKernel(4, func(k *kernel, p *proc) {
		if p.id == 0 {
			p.advance(10)
			k.broadcast(&c)
			return
		}
		p.wait(&c)
		if k.now != 10 {
			t.Errorf("proc %d woke at %g, want 10", p.id, k.now)
		}
		woke = append(woke, p.id)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != 1 || woke[1] != 2 || woke[2] != 3 {
		t.Fatalf("wake order = %v, want [1 2 3]", woke)
	}
}

// TestDeadlockDetected: WaitSignal on a flag nobody signals is a deadlock.
func TestDeadlockDetected(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			r.WaitSignal("never", 1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "1 blocked") {
		t.Fatalf("got %v, want a deadlock with 1 blocked rank", err)
	}
}

func TestMessagePingPong(t *testing.T) {
	// Two procs exchange "messages" via delivery closures and conds; the
	// round trip takes 2×latency per round.
	const latency = 1e-6
	const rounds = 5
	var conds [2]cond
	var arrived [2]int
	end, err := runKernel(2, func(k *kernel, p *proc) {
		me, other := p.id, 1-p.id
		send := func() {
			k.at(k.now+latency, func() {
				arrived[other]++
				k.broadcast(&conds[other])
			})
		}
		for r := 0; r < rounds; r++ {
			if me == 0 {
				send()
			}
			for arrived[me] <= r {
				p.wait(&conds[me])
			}
			if me == 1 {
				send()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * latency * rounds; math.Abs(end-want) > 1e-12 {
		t.Fatalf("end = %g, want %g", end, want)
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	// Property: for random advance sequences across random proc counts,
	// observed times never decrease and the final time is the largest
	// per-proc total.
	f := func(steps []uint8, nRaw uint8) bool {
		n := int(nRaw%4) + 1
		last, maxTotal, mono := -1.0, 0.0, true
		end, err := runKernel(n, func(k *kernel, p *proc) {
			total := 0.0
			for i, s := range steps {
				if i%n != p.id {
					continue
				}
				dt := float64(s) / 255
				p.advance(dt)
				total += dt
				mono = mono && k.now >= last
				last = k.now
			}
			maxTotal = math.Max(maxTotal, total)
		})
		return err == nil && mono && math.Abs(end-maxTotal) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEventsCounter(t *testing.T) {
	reg := obs.NewRegistry()
	w := NewWorld(1, spec(), nil, nil)
	w.SetObs(reg)
	if _, err := w.Run(func(r *Rank) { r.Idle(1) }); err != nil {
		t.Fatal(err)
	}
	// The rank's start and its resumption after Idle.
	if n := reg.Snapshot().Counter("pdes.events"); n != 2 {
		t.Fatalf("pdes.events = %d, want 2", n)
	}
}

// TestFloodTieOrderGolden pins the order in which equal-time ranks issue
// into one receiver. Every sender reaches t = 2^-14 at the same instant,
// but rank 5 schedules that resumption first and rank 1 last, so rank 5
// takes the receiver's NIC first. Ordering ties by rank instead changes
// every finish time below.
func TestFloodTieOrderGolden(t *testing.T) {
	const n = 6
	w := NewWorld(n, spec(), nil, nil)
	w.Alloc("x", 64)
	finish := make([]float64, n)
	end, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.WaitSignal("flood", 3*(n-1))
		} else {
			a := math.Ldexp(float64(n-r.ID()), -20)
			r.Idle(a)
			r.Idle(math.Ldexp(1, -14) - a)
			for i := 0; i < 3; i++ {
				r.PutSignal(0, "x", 8*r.ID(), make([]float64, 8), "flood").Wait()
			}
		}
		finish[r.ID()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{8.913115624999997e-05, 8.913115624999997e-05, 8.813115624999997e-05,
		8.713115624999998e-05, 8.613115624999998e-05, 8.513115624999998e-05}
	if end != want[0] {
		t.Errorf("makespan %v, want %v", end, want[0])
	}
	for i := range finish {
		if finish[i] != want[i] {
			t.Errorf("rank %d finished at %v, want %v", i, finish[i], want[i])
		}
	}
}

// TestFailedRunLeaksNoGoroutines: a world that deadlocks, or whose delivery
// closure or issuing rank panics, unwinds every rank goroutine before Run
// returns.
func TestFailedRunLeaksNoGoroutines(t *testing.T) {
	for _, c := range []struct {
		name string
		want string
		body func(r *Rank)
	}{
		{"deadlock", "deadlock", func(r *Rank) {
			r.WaitSignal("never", 1)
		}},
		{"closure panic", "handler panicked", func(r *Rank) {
			if r.ID() == 0 {
				r.w.k.at(r.Now()+1, func() { panic("delivery failed") })
			}
			r.WaitSignal("never", 1)
		}},
		{"rank panic", "rank 0 panicked", func(r *Rank) {
			if r.ID() == 0 {
				r.Put(1, "x", 3, []float64{1, 2}) // past the segment's end
			}
			r.WaitSignal("never", 1)
		}},
	} {
		before := runtime.NumGoroutine()
		w := NewWorld(8, spec(), nil, nil)
		w.Alloc("x", 4)
		if _, err := w.Run(c.body); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
		// An unwound rank signals the kernel just before its goroutine
		// exits, so allow the scheduler a moment to retire it.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("%s: %d goroutines after the run, %d before", c.name, n, before)
		}
	}
}
