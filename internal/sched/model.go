package sched

// PredictChunked models the makespan of ForEachChunked on given per-task
// costs: contiguous chunks of `chunk` tasks are list-scheduled onto the
// earliest-free of p workers, and every grab serialises for grabSec on the
// shared counter (the atomic's coherence round trip). The model exposes
// the granularity trade-off the measured scheduler exhibits: tiny chunks
// serialise on the counter, huge chunks re-create static imbalance. The
// F4-chunk tunable searches this function for the machine's sweet spot.
// With chunk 1 and no grab cost it is plain list scheduling, the dynamic
// schedule of the W4 demonstrator. busy is each worker's work time, grabs
// excluded.
func PredictChunked(costs []float64, p, chunk int, grabSec float64) (makespan float64, busy []float64) {
	if p < 1 {
		p = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	busy = make([]float64, p)
	free := make([]float64, p) // next-free time per worker
	counterFree := 0.0         // the shared counter is a serial resource
	for lo := 0; lo < len(costs); lo += chunk {
		hi := lo + chunk
		if hi > len(costs) {
			hi = len(costs)
		}
		w := 0
		for i := 1; i < p; i++ {
			if free[i] < free[w] {
				w = i
			}
		}
		start := free[w]
		if counterFree > start {
			start = counterFree
		}
		counterFree = start + grabSec
		work := 0.0
		for _, c := range costs[lo:hi] {
			work += c
		}
		free[w] = start + grabSec + work
		busy[w] += work
	}
	for _, f := range free {
		if f > makespan {
			makespan = f
		}
	}
	return makespan, busy
}
