// Benchmarks: measured-plane benchmarks that run the wasteful/remedied
// kernel pairs on the host CPU, plus the substrate costs of the cache
// simulator and the event engines. Experiment wall times are in wastelab
// -json's wall_ms and the tenbench suite workload, not here. Run with:
//
//	go test -bench=. -benchmem
//
// Use -short to shrink the idle-wave benchmark.
package tenways_test

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"tenways"
	"tenways/internal/kernels"
	"tenways/internal/machine"
	"tenways/internal/mem"
	"tenways/internal/pdes"
	"tenways/internal/sched"
	"tenways/internal/sim"
	"tenways/internal/workload"
)

// BenchmarkMeasuredMatmul contrasts W1 on real hardware: naive ijk versus
// cache-blocked, n = 192 (3 matrices x 288 KiB, beyond typical L2).
func BenchmarkMeasuredMatmul(b *testing.B) {
	n := 192
	a := make([]float64, n*n)
	bb := make([]float64, n*n)
	c := make([]float64, n*n)
	rng := workload.NewRand(1)
	for i := range a {
		a[i] = rng.Float64()
		bb[i] = rng.Float64()
	}
	flops := kernels.MatMulFlops(n)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.MatMulNaive(c, a, bb, n)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
	b.Run("blocked32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.MatMulBlocked(c, a, bb, n, 32)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

// BenchmarkMeasuredTriad measures STREAM triad bandwidth (W8's
// low-intensity end) on the host.
func BenchmarkMeasuredTriad(b *testing.B) {
	n := 1 << 22
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	b.SetBytes(int64(24 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.Triad(z, x, y, 3.0)
	}
}

// BenchmarkMeasuredFalseSharing contrasts W9 on real hardware: four
// goroutines hammering adjacent versus padded counters.
func BenchmarkMeasuredFalseSharing(b *testing.B) {
	const workers = 4
	run := func(b *testing.B, stride int) {
		counters := make([]int64, workers*stride)
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/workers + 1
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					atomic.AddInt64(&counters[w*stride], 1)
				}
			}(w)
		}
		wg.Wait()
	}
	b.Run("packed", func(b *testing.B) { run(b, 1) })
	b.Run("padded", func(b *testing.B) { run(b, 16) })
}

// BenchmarkMeasuredLockVsSharded contrasts W5 on real hardware.
func BenchmarkMeasuredLockVsSharded(b *testing.B) {
	const workers = 4
	b.Run("lock", func(b *testing.B) {
		var mu sync.Mutex
		var total int64
		var wg sync.WaitGroup
		per := b.N/workers + 1
		b.ResetTimer()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					mu.Lock()
					total++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		_ = total
	})
	b.Run("sharded", func(b *testing.B) {
		shards := make([]int64, workers*16)
		var wg sync.WaitGroup
		per := b.N/workers + 1
		b.ResetTimer()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				local := int64(0)
				for i := 0; i < per; i++ {
					local++
				}
				shards[w*16] = local
			}(w)
		}
		wg.Wait()
	})
}

// BenchmarkMeasuredBarrier contrasts W10's waiting disciplines: blocking
// versus spinning sense-reversing barriers, 4 parties.
func BenchmarkMeasuredBarrier(b *testing.B) {
	const parties = 4
	b.Run("blocking", func(b *testing.B) {
		bar := sched.NewBarrier(parties)
		var wg sync.WaitGroup
		b.ResetTimer()
		for w := 0; w < parties; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					bar.Wait()
				}
			}()
		}
		wg.Wait()
	})
	b.Run("spin", func(b *testing.B) {
		bar := sched.NewSpinBarrier(parties)
		var wg sync.WaitGroup
		b.ResetTimer()
		for w := 0; w < parties; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					bar.Wait()
				}
			}()
		}
		wg.Wait()
	})
}

// BenchmarkMeasuredSchedulers contrasts W4's schedulers over uniform work
// (the no-skew control: static should win on overhead).
func BenchmarkMeasuredSchedulers(b *testing.B) {
	work := func(i int) {
		x := float64(i)
		for k := 0; k < 200; k++ {
			x = x*1.0000001 + 1e-9
		}
		if x < 0 {
			panic("unreachable: keeps the loop live")
		}
	}
	const n = 4096
	for _, tc := range []struct {
		name string
		run  func(p *sched.Pool)
	}{
		{"static", func(p *sched.Pool) { p.ForEachStatic(n, work) }},
		{"chunked64", func(p *sched.Pool) { p.ForEachChunked(n, 64, work) }},
		{"guided", func(p *sched.Pool) { p.ForEachGuided(n, 8, work) }},
		{"stealing", func(p *sched.Pool) { p.ForEachStealing(n, 64, work) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p := sched.NewPool(4, nil)
			for i := 0; i < b.N; i++ {
				tc.run(p)
			}
		})
	}
}

// BenchmarkMeasuredSampleSort measures the parallel sort kernel.
func BenchmarkMeasuredSampleSort(b *testing.B) {
	n := 1 << 16
	rng := workload.NewRand(3)
	src := make([]float64, n)
	for i := range src {
		src[i] = rng.Float64()
	}
	buf := make([]float64, n)
	p := sched.NewPool(4, nil)
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		kernels.SampleSort(p, buf, 1)
	}
}

// BenchmarkMeasuredFFT measures the radix-2 FFT.
func BenchmarkMeasuredFFT(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(float64(i%7), 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := kernels.FFT(x); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(kernels.FFTFlops(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkMeasuredBFS measures graph traversal on an R-MAT graph.
func BenchmarkMeasuredBFS(b *testing.B) {
	g := workload.RMAT(11, 12, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.BFS(g, 0)
	}
	b.ReportMetric(float64(g.NumEdges()*b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
}

// BenchmarkCacheSim measures the cache simulator's own throughput — the
// substrate cost that bounds F1/F9 sweep sizes.
func BenchmarkCacheSim(b *testing.B) {
	h, err := mem.NewHierarchy(machine.Laptop2009(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(0, uint64(i%(1<<22))*8, 8)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Maccess/s")
}

// BenchmarkDESKernel measures the discrete-event kernel's event rate — the
// substrate cost that bounds F11/F14 rank counts.
func BenchmarkDESKernel(b *testing.B) {
	k := sim.NewKernel()
	_, err := k.Run(2, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1e-9)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkPDESIdleWave measures the partitioned engine's event rate on the
// F28 idle-wave workload across partition counts — the scaling curve that
// justifies the windowed design over the serial kernel (partitions=1 is the
// serial baseline with the same queue and batch machinery in the loop).
func BenchmarkPDESIdleWave(b *testing.B) {
	ranks := 1 << 14
	if testing.Short() {
		ranks = 1 << 11
	}
	run := func(b *testing.B, cfg pdes.Config) {
		var events uint64
		for i := 0; i < b.N; i++ {
			w, err := pdes.NewIdleWave(ranks, 6, 50e-6, 400e-6, []int{1, 4}, []float64{2e-6, 2.5e-6})
			if err != nil {
				b.Fatal(err)
			}
			cfg.Lookahead = w.MinDelay()
			res, err := pdes.Run(w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			events += res.Events
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	}
	for _, parts := range []int{1, 2, 4, 8} {
		b.Run("parts="+strconv.Itoa(parts), func(b *testing.B) {
			run(b, pdes.Config{Partitions: parts})
		})
	}
}

// BenchmarkKernelEvents tracks the event kernel's throughput with and
// without a chaos perturber in the loop, so injector overhead on the hot
// Lapse path stays visible. The per-regime breakdown lives in
// internal/sim's BenchmarkKernelEvents.
func BenchmarkKernelEvents(b *testing.B) {
	run := func(b *testing.B, sc *tenways.Scenario) {
		w := tenways.NewWorld(4, tenways.Petascale2009())
		if sc != nil {
			sc.Arm(w)
		}
		per := b.N/4 + 1
		if _, err := w.Run(func(r *tenways.Rank) {
			for i := 0; i < per; i++ {
				r.Lapse(1e-9)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("quiet", func(b *testing.B) { run(b, nil) })
	b.Run("jitter", func(b *testing.B) {
		run(b, tenways.NewScenario().Add(tenways.NewJitter(tenways.JitterExponential, 0.1, 42, 4)))
	})
}
