package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"tenways/internal/obs"
	"tenways/internal/pdes"
	"tenways/internal/workload"
)

// phold is PHOLD (Fujimoto): a fixed population of events hops between
// ranks. Each handled event emits one successor, to a uniformly random
// rank with probability one half and to its own rank otherwise, after a
// delay of L·(1+2u). Every cross-rank delay is at least L, the lookahead,
// so results are byte-identical at any partition count. Each rank draws
// from its own stream, seeded from the workload seed: a rank handles its
// events in the same order under any partitioning, so it draws the same
// numbers.
type phold struct {
	n       int
	perRank int     // initial events per rank
	look    float64 // L, also the engine lookahead
	stop    float64 // no event is scheduled past this virtual time

	rng   []workload.Rand // per-rank stream
	sum   []float64       // per-rank sum of handled event times
	count []uint64        // per-rank handled events
}

func newPHOLD(n int, seed uint64, look, stop float64) *phold {
	p := &phold{n: n, perRank: 4, look: look, stop: stop,
		rng: make([]workload.Rand, n), sum: make([]float64, n), count: make([]uint64, n)}
	master := workload.NewRand(seed)
	for r := range p.rng {
		p.rng[r] = *workload.NewRand(master.Uint64())
	}
	return p
}

func (p *phold) Ranks() int { return p.n }

func (p *phold) Init(s pdes.Sched, rank int) {
	for i := 0; i < p.perRank; i++ {
		p.emit(s, rank, 0)
	}
}

func (p *phold) Handle(s pdes.Sched, ev pdes.Event) {
	r := int(ev.Dst)
	p.sum[r] += ev.Time
	p.count[r]++
	p.emit(s, r, ev.Time)
}

func (p *phold) emit(s pdes.Sched, rank int, now float64) {
	rng := &p.rng[rank]
	u := rng.Uint64()
	dst := rank
	if u&1 == 1 {
		dst = int((u >> 1) % uint64(p.n))
	}
	t := now + p.look*(1+2*rng.Float64())
	if t > p.stop {
		return
	}
	s.At(dst, t, 0, 0, 0)
}

// checksum folds every rank's handled-event count and time sum, in rank
// order, into one value that must match across partitionings.
func (p *phold) checksum() uint64 {
	h := fnv.New64a()
	var b [16]byte
	for r := 0; r < p.n; r++ {
		binary.LittleEndian.PutUint64(b[:8], p.count[r])
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.sum[r]))
		h.Write(b[:])
	}
	return h.Sum64()
}

// pdesOutcome is what a run must reproduce: the partition-independent
// part of the result plus the workload's own checksum.
type pdesOutcome struct {
	events   uint64
	virtual  float64
	checksum uint64
}

func (o pdesOutcome) String() string {
	return fmt.Sprintf("events=%d virtual=%g checksum=%016x", o.events, o.virtual, o.checksum)
}

// pdesRun runs one fresh workload from mk under cfg and returns its
// outcome and engine result. Construction is outside the measurement.
func pdesRun(e *env, name string, mk func() (pdes.Workload, func() uint64, error), cfg pdes.Config) (pdesOutcome, pdes.Result, sample, error) {
	w, sum, err := mk()
	if err != nil {
		return pdesOutcome{}, pdes.Result{}, sample{}, err
	}
	var res pdes.Result
	_, end := e.tracer.begin(name, 0)
	s, err := measure(func() error {
		var err error
		res, err = pdes.Run(w, cfg)
		return err
	})
	end()
	return pdesOutcome{events: res.Events, virtual: res.VirtualTime, checksum: sum()}, res, s, err
}

// pdesWorkload is the shared rep loop of the two engine workloads: each
// rep runs a fresh workload on the default partitioning and must match
// the one-partition reference.
type pdesWorkload struct {
	name string
	look float64
	mk   func() (pdes.Workload, func() uint64, error)
	ref  pdesOutcome
}

func (w *pdesWorkload) reference(e *env) error {
	out, _, _, err := pdesRun(e, "pdes.Run.serial", w.mk, pdes.Config{Lookahead: w.look, Partitions: 1})
	if err != nil {
		return err
	}
	if out.events == 0 {
		return fmt.Errorf("reference run handled no events")
	}
	w.ref = out
	return nil
}

func (w *pdesWorkload) rep(e *env) (sample, error) {
	out, res, s, err := pdesRun(e, "pdes.Run", w.mk, pdes.Config{Lookahead: w.look, Obs: obs.NewRegistry()})
	s.attempted = 1
	if err == nil && out != w.ref {
		err = fmt.Errorf("%d partitions gave %v, one partition gave %v", res.Partitions, out, w.ref)
	}
	if err != nil {
		s.failed = 1
	}
	return s, err
}

func (w *pdesWorkload) info() map[string]string {
	return map[string]string{w.name + ".reference": w.ref.String()}
}

// waveWorkload is F28's idle wave at scale: queue- and allocation-bound
// with almost no cross-partition exchange.
type waveWorkload struct{ pdesWorkload }

func (w *waveWorkload) minReps() int { return 8 }
func (w *waveWorkload) warmups() int { return 2 }

// prepare builds the idle wave. The seed sets the spike on rank 0, which
// moves the wave but not the event count.
func (w *waveWorkload) prepare(e *env) error {
	n := e.scale.waveRanks
	spike := 400e-6 * (1 + workload.NewRand(e.seed).Float64()/4)
	mk := func() (pdes.Workload, func() uint64, error) {
		iw, err := pdes.NewIdleWave(n, 20, 50e-6, spike, []int{1, 4}, []float64{2e-6, 2.5e-6})
		if err != nil {
			return nil, nil, err
		}
		return iw, func() uint64 {
			h := fnv.New64a()
			var b [8]byte
			for r := 0; r < n; r++ {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(iw.Arrival(r)))
				h.Write(b[:])
			}
			return h.Sum64()
		}, nil
	}
	iw, _, err := mk()
	if err != nil {
		return err
	}
	w.pdesWorkload = pdesWorkload{name: "pdes-wave", look: iw.(*pdes.IdleWave).MinDelay(), mk: mk}
	return nil
}

// pholdLookahead is PHOLD's L: 1 µs of virtual time.
const pholdLookahead = 1e-6

// pholdWorkload drives the engine through the cross-partition exchange,
// arena and barrier path that the idle wave bypasses.
type pholdWorkload struct{ pdesWorkload }

func (w *pholdWorkload) minReps() int { return 6 }
func (w *pholdWorkload) warmups() int { return 1 }

func (w *pholdWorkload) prepare(e *env) error {
	n, seed, stop := e.scale.pholdRanks, e.seed, e.scale.pholdStop
	mk := func() (pdes.Workload, func() uint64, error) {
		p := newPHOLD(n, seed, pholdLookahead, stop)
		return p, p.checksum, nil
	}
	if _, _, err := mk(); err != nil {
		return err
	}
	w.pdesWorkload = pdesWorkload{name: "pdes-phold", look: pholdLookahead, mk: mk}
	return nil
}
