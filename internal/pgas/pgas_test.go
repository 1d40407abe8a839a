package pgas

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"tenways/internal/energy"
	"tenways/internal/machine"
	"tenways/internal/netsim"
	"tenways/internal/trace"
)

func spec() *machine.Spec { return machine.Petascale2009() }

func TestPutDeliversData(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	w.Alloc("x", 4)
	var got []float64
	_, err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Put(1, "x", 1, []float64{7, 8})
			r.Signal(1, "done")
		case 1:
			r.WaitSignal("done", 1)
			got = append([]float64(nil), r.Local("x")...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 7, 8, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestGetFetchesRemoteData(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	w.Alloc("x", 2)
	var got []float64
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			r.Local("x")[0] = 42
			r.Local("x")[1] = 43
			r.Signal(0, "ready")
		} else {
			r.WaitSignal("ready", 1)
			got = r.Get(1, "x", 0, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 || got[1] != 43 {
		t.Fatalf("got %v", got)
	}
}

func TestBlockingPutTakesMessageTime(t *testing.T) {
	s := spec()
	w := NewWorld(2, s, nil, nil)
	w.Alloc("x", 128)
	end, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Put(1, "x", 0, make([]float64, 128))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := s.MsgTimeSec(128 * 8)
	if math.Abs(end-want) > 1e-12 {
		t.Fatalf("end = %g, want %g", end, want)
	}
}

func TestAsyncPutOverlaps(t *testing.T) {
	// Overlapped: issue the put, compute, then wait. Total time should be
	// max(compute, message) + overhead, clearly less than their sum.
	s := spec()
	compute := 5e-5
	n := 1024
	msg := s.MsgTimeSec(float64(8 * n))

	blocking := NewWorld(2, s, nil, nil)
	blocking.Alloc("x", n)
	tBlock, err := blocking.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Put(1, "x", 0, make([]float64, n))
			r.Lapse(compute)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	overlap := NewWorld(2, s, nil, nil)
	overlap.Alloc("x", n)
	tOver, err := overlap.Run(func(r *Rank) {
		if r.ID() == 0 {
			h := r.PutAsync(1, "x", 0, make([]float64, n))
			r.Lapse(compute)
			h.Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if tOver >= tBlock {
		t.Fatalf("overlap (%g) should beat blocking (%g)", tOver, tBlock)
	}
	if tBlock < msg+compute-1e-12 {
		t.Fatalf("blocking should serialise: %g < %g", tBlock, msg+compute)
	}
}

func TestSignalCounts(t *testing.T) {
	w := NewWorld(3, spec(), nil, nil)
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.WaitSignal("go", 2)
			if r.w.flag(r.ID(), "go").count < 2 {
				t.Error("count below waited threshold")
			}
		} else {
			r.Signal(0, "go")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().Signals != 2 {
		t.Fatalf("signals = %d", w.Stats().Signals)
	}
}

func TestStatsCountMessages(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	w.Alloc("x", 8)
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Put(1, "x", 0, make([]float64, 8))
			r.Get(1, "x", 0, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Puts != 1 || st.Gets != 1 {
		t.Fatalf("puts=%d gets=%d", st.Puts, st.Gets)
	}
	// put(64B) + get request(16B) + get response(64B)
	if st.Messages != 3 {
		t.Fatalf("messages = %d, want 3", st.Messages)
	}
	if st.BytesSent != 64+16+64 {
		t.Fatalf("bytes = %d", st.BytesSent)
	}
}

func TestEnergyAccounting(t *testing.T) {
	s := spec()
	m := energy.NewMeter()
	w := NewWorld(2, s, nil, m)
	w.Alloc("x", 64)
	end, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(1e6, 1e5)
			r.Put(1, "x", 0, make([]float64, 64))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b := m.Breakdown()
	if b.Joules(energy.Flops) <= 0 || b.Joules(energy.DRAM) <= 0 ||
		b.Joules(energy.Network) <= 0 || b.Joules(energy.Idle) <= 0 {
		t.Fatalf("missing components: %v", b)
	}
	// Rank 1 is idle for the whole run; rank 0 idles only while blocked on
	// the put (its busy ledger covers compute + overhead).
	if b.Joules(energy.Idle) < s.IdleEnergyJ(end)*0.9 {
		t.Fatalf("idle energy too small: %v (end=%g)", b, end)
	}
}

func TestComputeRooflineMax(t *testing.T) {
	s := spec()
	w := NewWorld(1, s, nil, nil)
	flops := 1e6
	bytes := 1e9 // heavily bandwidth bound
	end, err := w.Run(func(r *Rank) { r.Compute(flops, bytes) })
	if err != nil {
		t.Fatal(err)
	}
	want := bytes / s.DRAM.BytesPerSec
	if math.Abs(end-want) > 1e-12 {
		t.Fatalf("bandwidth-bound time = %g, want %g", end, want)
	}
}

func TestSpinVersusIdleEnergy(t *testing.T) {
	s := spec()
	mSpin := energy.NewMeter()
	w1 := NewWorld(1, s, nil, mSpin)
	if _, err := w1.Run(func(r *Rank) { r.Spin(1.0) }); err != nil {
		t.Fatal(err)
	}
	mIdle := energy.NewMeter()
	w2 := NewWorld(1, s, nil, mIdle)
	if _, err := w2.Run(func(r *Rank) { r.Idle(1.0) }); err != nil {
		t.Fatal(err)
	}
	if mSpin.Total() <= mIdle.Total() {
		t.Fatalf("spinning (%g J) must cost more than blocking idle (%g J)",
			mSpin.Total(), mIdle.Total())
	}
	if math.Abs(mIdle.Total()-s.IdleEnergyJ(1.0)) > 1e-9 {
		t.Fatalf("idle energy = %g", mIdle.Total())
	}
}

func TestNetsimCostModelIntegration(t *testing.T) {
	s := spec()
	topo := netsim.NewRing(4)
	model := netsim.NewModel(s.Net, topo)
	w := NewWorld(4, s, model, nil)
	w.Alloc("x", 1)
	var tNear, tFar float64
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			start := r.Now()
			r.Put(1, "x", 0, []float64{1})
			tNear = r.Now() - start
			start = r.Now()
			r.Put(2, "x", 0, []float64{1})
			tFar = r.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if tFar <= tNear {
		t.Fatalf("2-hop put (%g) should be slower than 1-hop (%g)", tFar, tNear)
	}
}

func TestUnknownSegmentPanics(t *testing.T) {
	w := NewWorld(1, spec(), nil, nil)
	_, err := w.Run(func(r *Rank) { r.Local("nope") })
	if err == nil {
		t.Fatal("expected error from panic in rank body")
	}
}

func TestDuplicateAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w := NewWorld(1, spec(), nil, nil)
	w.Alloc("x", 1)
	w.Alloc("x", 1)
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() float64 {
		w := NewWorld(8, spec(), nil, nil)
		w.Alloc("x", 8)
		end, err := w.Run(func(r *Rank) {
			next := (r.ID() + 1) % r.N()
			r.Put(next, "x", 0, make([]float64, 8))
			r.Signal(next, "tok")
			r.WaitSignal("tok", 1)
			r.Compute(1e5, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %g vs %g", a, b)
	}
}

// Property: a ring "pass the token" among n ranks completes and its
// makespan grows with n (each hop adds latency).
func TestTokenRingScalesProperty(t *testing.T) {
	times := map[int]float64{}
	for _, n := range []int{2, 4, 8} {
		w := NewWorld(n, spec(), nil, nil)
		end, err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				r.Signal(1%r.N(), "tok")
				r.WaitSignal("tok", 1)
			} else {
				r.WaitSignal("tok", 1)
				r.Signal((r.ID()+1)%r.N(), "tok")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		times[n] = end
	}
	if !(times[2] < times[4] && times[4] < times[8]) {
		t.Fatalf("token ring times not increasing: %v", times)
	}
}

// Property: total bytes reported equals 8× elements put plus fixed message
// framing for gets/signals, for arbitrary put sizes.
func TestBytesAccountingProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 16 {
			sizes = sizes[:16]
		}
		w := NewWorld(2, spec(), nil, nil)
		maxN := 0
		total := 0
		for _, s := range sizes {
			n := int(s)%64 + 1
			total += n
			if n > maxN {
				maxN = n
			}
		}
		w.Alloc("x", maxN)
		_, err := w.Run(func(r *Rank) {
			if r.ID() != 0 {
				return
			}
			for _, s := range sizes {
				n := int(s)%64 + 1
				r.Put(1, "x", 0, make([]float64, n))
			}
		})
		if err != nil {
			return false
		}
		return w.Stats().BytesSent == int64(8*total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReceiverNICSerializesFlood(t *testing.T) {
	// 16 ranks signal rank 0 simultaneously: arrivals must be spaced by at
	// least the receive overhead, so the last lands no earlier than ~15·o
	// after the first.
	s := spec()
	n := 16
	w := NewWorld(n, s, nil, nil)
	end, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.WaitSignal("flood", int64(n-1))
			return
		}
		r.Signal(0, "flood")
	})
	if err != nil {
		t.Fatal(err)
	}
	minEnd := s.MsgTimeSec(8) + float64(n-2)*s.Net.OverheadSec
	if end < minEnd*0.99 {
		t.Fatalf("flood completed at %g, below NIC-serialised bound %g", end, minEnd)
	}
	// A single signal is NOT delayed by the NIC model.
	w2 := NewWorld(2, s, nil, nil)
	end2, err := w2.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.WaitSignal("one", 1)
			return
		}
		r.Signal(0, "one")
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end2-s.MsgTimeSec(8)) > 1e-12 {
		t.Fatalf("single message delayed: %g vs %g", end2, s.MsgTimeSec(8))
	}
}

func TestPutSignalDataBeforeSignal(t *testing.T) {
	// The signal must never be observable before the data: receivers that
	// wake on the flag read the freshly landed values.
	w := NewWorld(2, spec(), nil, nil)
	w.Alloc("x", 3)
	var got []float64
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.PutSignal(1, "x", 0, []float64{9, 8, 7}, "ready")
			return
		}
		r.WaitSignal("ready", 1)
		got = append([]float64(nil), r.Local("x")...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 || got[2] != 7 {
		t.Fatalf("signal observable before data: %v", got)
	}
}

func TestSendRecvFIFO(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	var got []float64
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 1; i <= 3; i++ {
				r.Send(1, "box", []float64{float64(i)})
			}
			return
		}
		for i := 0; i < 3; i++ {
			got = append(got, r.Recv("box")[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != float64(i+1) {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestHandleDoneAndWaitAll(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	w.Alloc("x", 16)
	_, err := w.Run(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		h1 := r.PutAsync(1, "x", 0, make([]float64, 8))
		h2 := r.PutAsync(1, "x", 8, make([]float64, 8))
		if h1.Done() {
			t.Error("handle done immediately after issue")
		}
		h1.Wait()
		h2.Wait()
		if !h1.Done() || !h2.Done() {
			t.Error("handles not done after waiting for both")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldAccessors(t *testing.T) {
	w := NewWorld(3, spec(), nil, nil)
	if w.Meter() == nil {
		t.Fatal("nil meter")
	}
	_, err := w.Run(func(r *Rank) {
		if r.World() != w {
			t.Error("World() mismatch")
		}
		if r.N() != 3 {
			t.Errorf("N = %d", r.N())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimpleCostLocal(t *testing.T) {
	c := SimpleCost{Spec: spec()}
	if c.MsgTime(2, 2, 100) >= c.MsgTime(2, 3, 100) {
		t.Fatal("local message should be cheaper than remote")
	}
	if c.MsgEnergy(2, 2, 100) != 0 {
		t.Fatal("local message should cost no network energy")
	}
}

// TestIssueChecksBounds: a transfer that addresses a rank or a range
// outside the world fails on the issuing rank, naming the op, the segment
// and the range, before anything is charged or delivered.
func TestIssueChecksBounds(t *testing.T) {
	for _, c := range []struct {
		op   func(r *Rank)
		want string
	}{
		{func(r *Rank) { r.PutSignal(1, "x", 60, make([]float64, 8), "f") },
			`pgas: rank 0 panicked: pgas: PutSignal [60:68) outside segment "x" of 64 elements at rank 1`},
		{func(r *Rank) { r.Put(1, "x", -1, make([]float64, 2)) },
			`pgas: rank 0 panicked: pgas: Put [-1:1) outside segment "x" of 64 elements at rank 1`},
		{func(r *Rank) { r.PutAsync(4, "x", 0, make([]float64, 2)) },
			`pgas: rank 0 panicked: pgas: PutAsync addresses rank 4 outside [0, 4)`},
		{func(r *Rank) { r.Get(2, "x", 32, 33) },
			`pgas: rank 0 panicked: pgas: GetAsync [32:65) outside segment "x" of 64 elements at rank 2`},
		{func(r *Rank) { r.Transfer(-1, 8, "f") },
			`pgas: rank 0 panicked: pgas: Transfer addresses rank -1 outside [0, 4)`},
		{func(r *Rank) { r.Transfer(1, -8, "f") },
			`pgas: rank 0 panicked: pgas: Transfer of -8 words`},
		{func(r *Rank) { r.Send(5, "box", []float64{1}) },
			`pgas: rank 0 panicked: pgas: Send addresses rank 5 outside [0, 4)`},
		{func(r *Rank) { r.SendSize(4, "box", 1) },
			`pgas: rank 0 panicked: pgas: SendSize addresses rank 4 outside [0, 4)`},
		{func(r *Rank) { r.SendSize(1, "box", -2) },
			`pgas: rank 0 panicked: pgas: SendSize of -2 words`},
		{func(r *Rank) { r.Signal(4, "f") },
			`pgas: rank 0 panicked: pgas: Signal addresses rank 4 outside [0, 4)`},
	} {
		w := NewWorld(4, spec(), nil, nil)
		w.Alloc("x", 64)
		_, err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				c.op(r)
			}
		})
		if err == nil || err.Error() != c.want {
			t.Errorf("got %v, want %q", err, c.want)
		}
		if st := w.Stats(); st.Messages != 0 {
			t.Errorf("%q: %d messages charged before the check", c.want, st.Messages)
		}
	}
}

// worldOutcome is what a run reports that a payload-free op must leave
// unchanged: its times, message stats, energy and wait attribution.
type worldOutcome struct {
	makespan float64
	finish   []float64
	stats    Stats
	joules   float64
	bd       trace.Breakdown
}

// TestTransferMatchesPutSignal: a halo ring with mixed message sizes, 0
// words included, costs exactly the same whether each message is a
// PutSignal of a zero buffer into a segment or a payload-free Transfer.
func TestTransferMatchesPutSignal(t *testing.T) {
	const p, steps = 6, 4
	sizes := []int{0, 1, 7, 64, 4096, 3}
	run := func(transfer bool) worldOutcome {
		w := NewWorld(p, spec(), nil, nil)
		maxWords := 0
		for _, n := range sizes {
			maxWords = max(maxWords, n)
		}
		if !transfer {
			w.Alloc("halo", 2*maxWords)
		}
		buf := make([]float64, maxWords)
		finish := make([]float64, p)
		makespan, err := w.Run(func(r *Rank) {
			id := r.ID()
			for s := 0; s < steps; s++ {
				n := sizes[(id+s)%len(sizes)]
				var hs []*Handle
				for i, dst := range []int{(id + p - 1) % p, (id + 1) % p} {
					if transfer {
						hs = append(hs, r.Transfer(dst, n, "halo"))
					} else {
						hs = append(hs, r.PutSignal(dst, "halo", i*maxWords, buf[:n], "halo"))
					}
				}
				r.Compute(1e5*float64(id+1), 0)
				for _, h := range hs {
					h.Wait()
				}
				r.WaitSignal("halo", int64(2*(s+1)))
			}
			finish[id] = r.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		return worldOutcome{makespan, finish, w.Stats(), w.Meter().Total(), w.Breakdown(makespan)}
	}
	put, tr := run(false), run(true)
	if !reflect.DeepEqual(put, tr) {
		t.Fatalf("Transfer differs from PutSignal:\n put      %+v\n transfer %+v", put, tr)
	}
	if put.stats.Puts != 2*p*steps || put.stats.Signals != 2*p*steps {
		t.Fatalf("stats %+v, want %d puts and signals", put.stats, 2*p*steps)
	}
}

// TestSendSizeMatchesSend: a ring of two-sided messages with mixed sizes, 0
// words included, costs exactly the same whether each message is a Send of
// a zero buffer or a payload-free SendSize, and every SendSize arrives as
// nil.
func TestSendSizeMatchesSend(t *testing.T) {
	const p, steps = 6, 4
	sizes := []int{0, 1, 7, 64, 4096, 3}
	run := func(sizeOnly bool) worldOutcome {
		w := NewWorld(p, spec(), nil, nil)
		buf := make([]float64, 4096)
		finish := make([]float64, p)
		makespan, err := w.Run(func(r *Rank) {
			id := r.ID()
			for s := 0; s < steps; s++ {
				n := sizes[(id+s)%len(sizes)]
				for _, dst := range []int{(id + p - 1) % p, (id + 1) % p} {
					if sizeOnly {
						r.SendSize(dst, "halo", n)
					} else {
						r.Send(dst, "halo", buf[:n])
					}
				}
				r.Compute(1e5*float64(id+1), 0)
				for i := 0; i < 2; i++ {
					msg := r.Recv("halo")
					if sizeOnly && msg != nil {
						t.Errorf("rank %d: SendSize delivered %d words", id, len(msg))
					}
				}
			}
			finish[id] = r.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		return worldOutcome{makespan, finish, w.Stats(), w.Meter().Total(), w.Breakdown(makespan)}
	}
	send, size := run(false), run(true)
	if !reflect.DeepEqual(send, size) {
		t.Fatalf("SendSize differs from Send:\n send     %+v\n sendSize %+v", send, size)
	}
	if send.stats.Sends != 2*p*steps {
		t.Fatalf("stats %+v, want %d sends", send.stats, 2*p*steps)
	}
}

// TestRecvReleasesMessage: once Recv has handed a message over, the world
// holds no reference to it, so a consumed 1 MiB payload is collectable
// while the world, and its mailbox, are still alive.
func TestRecvReleasesMessage(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	var collected atomic.Bool
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, "box", make([]float64, 1<<17))
			return
		}
		msg := r.Recv("box")
		runtime.SetFinalizer(&msg[0], func(*float64) { collected.Store(true) })
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(w)
	if !collected.Load() {
		t.Fatal("a received 1 MiB message is still reachable from the world")
	}
}

// Messages from one rank to another are delivered in the order they were
// issued, even when a later one is much smaller: the receiver's NIC queues
// arrivals. collective's ring allreduce relies on it to reuse one box for
// every step of a phase.
func TestSendsArriveInIssueOrder(t *testing.T) {
	w := NewWorld(2, spec(), nil, nil)
	sizes := []int{1 << 16, 1, 1 << 12, 0, 3}
	var got []int
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for _, words := range sizes {
				r.Send(1, "box", make([]float64, words))
			}
			return
		}
		for range sizes {
			got = append(got, len(r.Recv("box")))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		if got[i] != sizes[i] {
			t.Fatalf("received sizes %v, sent %v", got, sizes)
		}
	}
}
