package pdes

import (
	"fmt"

	"tenways/internal/obs"
	"tenways/internal/sim"
)

// simSched adapts the classic single-heap sim.Kernel to the Sched
// interface, so any pdes.Workload also runs on the old engine — the
// cross-engine reference the determinism tests compare the partitioned
// engine against.
type simSched struct {
	k    *sim.Kernel
	w    Workload
	look float64
	seq  []uint32
	src  int32
}

func (s *simSched) Now() float64       { return s.k.Now() }
func (s *simSched) Rank() int          { return int(s.src) }
func (s *simSched) Lookahead() float64 { return s.look }

func (s *simSched) At(dst int, t float64, kind, step int32, data float64) {
	if dst < 0 || dst >= len(s.seq) {
		panic(fmt.Sprintf("pdes: rank %d scheduled event on rank %d, outside [0, %d)", s.src, dst, len(s.seq)))
	}
	src := s.src
	s.seq[src]++
	ev := Event{Time: t, Data: data, Src: src, Dst: int32(dst), Seq: s.seq[src], Kind: kind, Step: step}
	s.k.At(t, func() {
		s.src = ev.Dst
		s.w.Handle(s, ev)
	})
}

// RunOnSim executes the workload on a fresh sim.Kernel. The kernel orders
// simultaneous events by insertion sequence rather than by (Time, Src,
// Seq), so a workload whose same-timestamp handlers do not commute may
// diverge from the partitioned engine; the idle-wave workloads commute and
// produce identical results on both. lookahead is only echoed through
// Sched.Lookahead — the single heap needs no windowing.
func RunOnSim(w Workload, lookahead float64, reg *obs.Registry) (virtualTime float64, events uint64, err error) {
	n := w.Ranks()
	if n < 1 {
		return 0, 0, fmt.Errorf("pdes: workload has %d ranks, need at least 1", n)
	}
	k := sim.NewKernel()
	k.SetMetrics(reg)
	s := &simSched{k: k, w: w, look: lookahead, seq: make([]uint32, n)}
	for r := 0; r < n; r++ {
		s.src = int32(r)
		w.Init(s, r)
	}
	vt, err := k.RunEvents()
	return vt, k.Events(), err
}
