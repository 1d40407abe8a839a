package sched

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"tenways/internal/trace"
)

// checkCoverage runs the scheduler over n items and verifies each index is
// visited exactly once.
func checkCoverage(t *testing.T, n int, run func(body func(i int))) {
	t.Helper()
	counts := make([]int64, n)
	run(func(i int) { atomic.AddInt64(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForEachStaticCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		for _, n := range []int{0, 1, 10, 103} {
			p := NewPool(workers, nil)
			checkCoverage(t, n, func(body func(int)) { p.ForEachStatic(n, body) })
		}
	}
}

func TestForEachChunkedCoverage(t *testing.T) {
	for _, chunk := range []int{0, 1, 3, 64} {
		p := NewPool(4, nil)
		checkCoverage(t, 100, func(body func(int)) { p.ForEachChunked(100, chunk, body) })
	}
}

func TestForEachGuidedCoverage(t *testing.T) {
	for _, n := range []int{1, 17, 256} {
		p := NewPool(4, nil)
		checkCoverage(t, n, func(body func(int)) { p.ForEachGuided(n, 1, body) })
	}
}

func TestForEachStealingCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 13, 211} {
			p := NewPool(workers, nil)
			checkCoverage(t, n, func(body func(int)) { p.ForEachStealing(n, 2, body) })
		}
	}
}

func TestRunTasksCoverage(t *testing.T) {
	p := NewPool(4, nil)
	var counts [50]int64
	tasks := make([]func(), 50)
	for i := range tasks {
		i := i
		tasks[i] = func() { atomic.AddInt64(&counts[i], 1) }
	}
	p.RunTasks(tasks)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

func TestPoolMinimumOneWorker(t *testing.T) {
	p := NewPool(0, nil)
	if p.Workers() != 1 {
		t.Fatalf("workers = %d", p.Workers())
	}
}

func TestSchedulersCoverageProperty(t *testing.T) {
	f := func(nRaw, wRaw, grainRaw uint8) bool {
		n := int(nRaw) % 200
		w := int(wRaw)%8 + 1
		grain := int(grainRaw)%8 + 1
		for _, run := range []func(func(int)){
			func(b func(int)) { NewPool(w, nil).ForEachStatic(n, b) },
			func(b func(int)) { NewPool(w, nil).ForEachChunked(n, grain, b) },
			func(b func(int)) { NewPool(w, nil).ForEachGuided(n, grain, b) },
			func(b func(int)) { NewPool(w, nil).ForEachStealing(n, grain, b) },
		} {
			counts := make([]int64, n)
			run(func(i int) { atomic.AddInt64(&counts[i], 1) })
			for _, c := range counts {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStealingBalancesSkewedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	// Skewed: the first 10% of iterations carry 10x the work.
	work := func(i, n int) {
		iters := 2000
		if i < n/10 {
			iters = 20000
		}
		x := 1.0
		for k := 0; k < iters; k++ {
			x = x*1.0000001 + 1e-9
		}
		sinkFloat(x)
	}
	n := 2000
	workers := 4

	recStatic := trace.NewRecorder(workers)
	NewPool(workers, recStatic).ForEachStatic(n, func(i int) { work(i, n) })

	recSteal := trace.NewRecorder(workers)
	NewPool(workers, recSteal).ForEachStealing(n, 8, func(i int) { work(i, n) })

	if is, iw := recStatic.Breakdown().Imbalance(), recSteal.Breakdown().Imbalance(); iw >= is {
		t.Logf("note: stealing imbalance %g vs static %g (timing-dependent)", iw, is)
		if iw > is*1.5 {
			t.Fatalf("stealing much worse than static: %g vs %g", iw, is)
		}
	}
}

// sinkF keeps work's loop from being optimized away; the pool's workers
// store to it concurrently, hence the atomic.
var sinkF atomic.Uint64

func sinkFloat(x float64) { sinkF.Store(math.Float64bits(x)) }

func TestDequeLIFOOwnerFIFOThief(t *testing.T) {
	d := &Deque{}
	order := []int{}
	for i := 0; i < 3; i++ {
		i := i
		d.PushBottom(func() { order = append(order, i) })
	}
	if d.Len() != 3 {
		t.Fatalf("len = %d", d.Len())
	}
	// Thief takes the oldest.
	task, ok := d.Steal()
	if !ok {
		t.Fatal("steal failed")
	}
	task()
	// Owner takes the newest.
	task, ok = d.PopBottom()
	if !ok {
		t.Fatal("pop failed")
	}
	task()
	if order[0] != 0 || order[1] != 2 {
		t.Fatalf("order = %v, want [0 2]", order)
	}
}

func TestDequeEmpty(t *testing.T) {
	d := &Deque{}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("pop on empty")
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("steal on empty")
	}
}

func TestDequeConcurrentConservation(t *testing.T) {
	// Owner pushes N tasks while thieves steal; every task must run
	// exactly once.
	const n = 2000
	d := &Deque{}
	var ran int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for th := 0; th < 3; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if task, ok := d.Steal(); ok {
					task()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		d.PushBottom(func() { atomic.AddInt64(&ran, 1) })
		if i%3 == 0 {
			if task, ok := d.PopBottom(); ok {
				task()
			}
		}
	}
	// Drain.
	for {
		task, ok := d.PopBottom()
		if !ok {
			break
		}
		task()
	}
	close(stop)
	wg.Wait()
	// Thieves may hold no un-run tasks: Steal returns the task to the
	// thief which runs it synchronously, so after drain all n ran.
	if got := atomic.LoadInt64(&ran); got != n {
		t.Fatalf("ran %d of %d", got, n)
	}
}

func TestDequePropertySequential(t *testing.T) {
	// Property: any sequence of push/pop/steal conserves tasks.
	f := func(ops []uint8) bool {
		d := &Deque{}
		pushed, popped := 0, 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				d.PushBottom(func() {})
				pushed++
			case 1:
				if _, ok := d.PopBottom(); ok {
					popped++
				}
			case 2:
				if _, ok := d.Steal(); ok {
					popped++
				}
			}
		}
		return d.Len() == pushed-popped
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	const parties = 4
	b := NewBarrier(parties)
	var phase int64
	var wg sync.WaitGroup
	errs := make(chan string, parties*10)
	for w := 0; w < parties; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				atomic.AddInt64(&phase, 1)
				b.Wait()
				// After the barrier, all parties of this round arrived.
				if got := atomic.LoadInt64(&phase); got < int64((round+1)*parties) {
					errs <- "barrier released early"
				}
				b.Wait() // second barrier separates rounds
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSpinBarrierSynchronises(t *testing.T) {
	const parties = 4
	b := NewSpinBarrier(parties)
	var count int64
	var wg sync.WaitGroup
	fail := make(chan struct{}, 1)
	for w := 0; w < parties; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				atomic.AddInt64(&count, 1)
				b.Wait()
				if atomic.LoadInt64(&count) < int64((round+1)*parties) {
					select {
					case fail <- struct{}{}:
					default:
					}
				}
				b.Wait()
			}
		}()
	}
	wg.Wait()
	select {
	case <-fail:
		t.Fatal("spin barrier released early")
	default:
	}
}

func TestBarrierSingleParty(t *testing.T) {
	b := NewBarrier(1)
	done := make(chan struct{})
	go func() {
		b.Wait()
		b.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("single-party barrier blocked")
	}
	NewSpinBarrier(1).Wait() // must not block either
}

func TestRecorderIntegration(t *testing.T) {
	rec := trace.NewRecorder(2)
	p := NewPool(2, rec)
	p.ForEachStatic(100, func(i int) { time.Sleep(10 * time.Microsecond) })
	b := rec.Breakdown()
	if b.Of(trace.Compute) == 0 {
		t.Fatal("no compute time recorded")
	}
}
