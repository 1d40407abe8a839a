package pdes

import (
	"fmt"

	"tenways/internal/stats"
)

// IdleWave is the cluster-scale idle-wave workload (Afzal/Hager/Wellein,
// arXiv:2103.03175): N ranks run a blocking halo chain — compute for
// Compute seconds, send halos to the ranks Offsets away on both sides, and
// block until the same-step halos from every neighbour arrive. One
// injected delay spike on rank 0 at step 0 launches an idle wave that
// propagates up the chain at the analytic speed
//
//	v = d_max / (Compute + delta_max)  ranks per second,
//
// one longest-offset hop per quiet step cadence. The workload records each
// rank's first departure from the quiet lockstep schedule, so a linear fit
// of (rank, arrival time) measures the wave speed the model predicts.
//
// Every halo between distinct ranks uses the per-offset delay Delays[i],
// so the minimum delay is a valid engine lookahead and results are
// byte-identical at any partition count.
type IdleWave struct {
	N       int
	Steps   int
	Compute float64   // per-step compute seconds (c)
	Spike   float64   // extra compute on rank 0 at step 0
	Offsets []int     // neighbour offsets (positive, ascending)
	Delays  []float64 // per-offset halo delay (delta), parallel to Offsets

	// Per-rank state, allocated by NewIdleWave. A rank at step s has
	// received recv[r] of its step-s halos and recvN[r] of its step-(s+1)
	// halos; blocking sync bounds any neighbour's lead to one step.
	step   []int32
	recv   []int32
	recvN  []int32
	done   []bool
	arrive []float64 // first perturbed step-start time; -1 = quiet

	maxDelay float64
	thresh   float64
}

// Event kinds: a rank's own compute completion, and a neighbour halo.
const (
	kindDone int32 = 1
	kindHalo int32 = 2
)

// NewIdleWave validates the parameters and allocates the per-rank state.
func NewIdleWave(n, steps int, compute, spike float64, offsets []int, delays []float64) (*IdleWave, error) {
	if n < 2 || steps < 1 {
		return nil, fmt.Errorf("pdes: idle wave needs >= 2 ranks and >= 1 step, got %d/%d", n, steps)
	}
	if compute <= 0 {
		return nil, fmt.Errorf("pdes: idle wave compute must be positive, got %g", compute)
	}
	if len(offsets) == 0 || len(offsets) != len(delays) {
		return nil, fmt.Errorf("pdes: idle wave needs matching offsets and delays, got %d/%d", len(offsets), len(delays))
	}
	w := &IdleWave{
		N: n, Steps: steps, Compute: compute, Spike: spike,
		Offsets: append([]int(nil), offsets...),
		Delays:  append([]float64(nil), delays...),
		step:    make([]int32, n),
		recv:    make([]int32, n),
		recvN:   make([]int32, n),
		done:    make([]bool, n),
		arrive:  make([]float64, n),
	}
	prev := 0
	for i, d := range offsets {
		if d <= prev {
			return nil, fmt.Errorf("pdes: idle wave offsets must be positive and ascending, got %v", offsets)
		}
		if 2*d >= n {
			return nil, fmt.Errorf("pdes: idle wave offset %d too large for %d ranks", d, n)
		}
		if delays[i] <= 0 {
			return nil, fmt.Errorf("pdes: idle wave delay for offset %d must be positive, got %g", d, delays[i])
		}
		prev = d
		if delays[i] > w.maxDelay {
			w.maxDelay = delays[i]
		}
	}
	for r := range w.arrive {
		w.arrive[r] = -1
	}
	w.thresh = compute / 10
	return w, nil
}

// MinDelay returns the smallest halo delay — the widest valid lookahead.
func (w *IdleWave) MinDelay() float64 {
	m := w.Delays[0]
	for _, d := range w.Delays[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

// AnalyticSpeed returns the model's wave speed d_max/(c+delta_max) in
// ranks per virtual second.
func (w *IdleWave) AnalyticSpeed() float64 {
	dmax := w.Offsets[len(w.Offsets)-1]
	return float64(dmax) / (w.Compute + w.maxDelay)
}

// cadence is the quiet lockstep step length: every rank starts step s at
// exactly s*cadence (each rank has at least one neighbour per offset in
// both validated regimes, so the max incoming delay is uniform).
func (w *IdleWave) cadence() float64 { return w.Compute + w.maxDelay }

func (w *IdleWave) Ranks() int { return w.N }

func (w *IdleWave) Init(s Sched, rank int) {
	c := w.Compute
	if rank == 0 {
		c += w.Spike
	}
	s.At(rank, c, kindDone, 0, 0)
}

func (w *IdleWave) Handle(s Sched, ev Event) {
	r := ev.Dst
	switch ev.Kind {
	case kindDone:
		// Compute for step ev.Step finished: ship the halos, then see if
		// the neighbours' halos already cleared the sync.
		for i, d := range w.Offsets {
			t := ev.Time + w.Delays[i]
			if lo := int(r) - d; lo >= 0 {
				s.At(lo, t, kindHalo, ev.Step, 0)
			}
			if hi := int(r) + d; hi < w.N {
				s.At(hi, t, kindHalo, ev.Step, 0)
			}
		}
		w.done[r] = true
		w.tryAdvance(s, r, ev.Time)
	case kindHalo:
		switch ev.Step {
		case w.step[r]:
			w.recv[r]++
			w.tryAdvance(s, r, ev.Time)
		case w.step[r] + 1:
			w.recvN[r]++
		default:
			panic(fmt.Sprintf("pdes: rank %d at step %d got halo for step %d", r, w.step[r], ev.Step))
		}
	default:
		panic(fmt.Sprintf("pdes: idle wave got foreign event kind %d", ev.Kind))
	}
}

// degree counts the rank's neighbours on the non-periodic chain.
func (w *IdleWave) degree(r int32) int32 {
	deg := int32(0)
	for _, d := range w.Offsets {
		if int(r)-d >= 0 {
			deg++
		}
		if int(r)+d < w.N {
			deg++
		}
	}
	return deg
}

// tryAdvance enters the next step once the rank has both finished its
// compute and received every same-step halo. The entry time is the
// timestamp of whichever event completed the condition — exactly the
// blocking-sync max.
func (w *IdleWave) tryAdvance(s Sched, r int32, now float64) {
	if !w.done[r] || w.recv[r] != w.degree(r) {
		return
	}
	next := w.step[r] + 1
	w.step[r] = next
	w.recv[r] = w.recvN[r]
	w.recvN[r] = 0
	w.done[r] = false
	if w.arrive[r] < 0 && now > float64(next)*w.cadence()+w.thresh {
		w.arrive[r] = now
	}
	if int(next) >= w.Steps {
		return // campaign over for this rank; stray halos cannot arrive
	}
	s.At(int(r), now+w.Compute, kindDone, next, 0)
}

// WaveSpeed fits arrival time against rank over the perturbed ranks and
// returns the measured speed (ranks per virtual second), the fit, and the
// number of perturbed ranks. With a spike on rank 0 the wave reaches
// roughly d_max ranks per step, so only the first Steps*d_max ranks are
// perturbed — the rest of the chain ran quiet, which is the point of
// running it at scale.
func (w *IdleWave) WaveSpeed() (speed float64, fit stats.Fit, perturbed int, err error) {
	xs := make([]float64, 0, w.N)
	ys := make([]float64, 0, w.N)
	for r, t := range w.arrive {
		if t >= 0 {
			xs = append(xs, float64(r))
			ys = append(ys, t)
		}
	}
	if len(xs) < 3 {
		return 0, stats.Fit{}, len(xs), fmt.Errorf("pdes: idle wave perturbed only %d ranks; need >= 3 for a fit (raise Spike or Steps)", len(xs))
	}
	fit, err = stats.LinearFit(xs, ys)
	if err != nil {
		return 0, fit, len(xs), err
	}
	if fit.Slope <= 0 {
		return 0, fit, len(xs), fmt.Errorf("pdes: idle wave fit slope %g not positive", fit.Slope)
	}
	return 1 / fit.Slope, fit, len(xs), nil
}

// Arrival returns rank r's recorded wave-arrival time, or -1 if the wave
// never reached it.
func (w *IdleWave) Arrival(r int) float64 { return w.arrive[r] }
