package pdes

import (
	"fmt"
)

// RunProcs runs sim.Proc-style sequential rank programs on the partitioned
// engine: one goroutine per rank, resumed one at a time per partition, so
// existing process-shaped workloads scale across partitions without being
// rewritten as event handlers. Cross-rank Send delays must be at least the
// configured lookahead; Advance (a self-event) may use any non-negative
// duration.
//
// The goroutine-per-rank model costs real memory per rank — use it for
// workloads up to the tens of thousands of ranks and the raw Workload
// interface for the million-rank regime.
func RunProcs(n int, cfg Config, body func(p *Proc)) (Result, error) {
	return runProcs(n, cfg, cfg.Lookahead/bucketsPerWindow, body)
}

// runProcs is RunProcs with an explicit ladder bucket width (see run).
func runProcs(n int, cfg Config, width float64, body func(p *Proc)) (Result, error) {
	w := &procsWorkload{n: n, body: body, procs: make([]*Proc, n)}
	res, err := run(w, cfg, width)
	if err != nil {
		return res, err
	}
	for _, pr := range w.procs {
		if pr.err != nil {
			return res, pr.err
		}
	}
	blocked := 0
	for _, pr := range w.procs {
		if !pr.finished {
			blocked++
		}
	}
	if blocked > 0 {
		// Parked goroutines persist for the life of the program, exactly
		// like a deadlocked sim.Kernel run; a deadlock is a bug in the
		// simulated program, so callers treat it as fatal.
		return res, fmt.Errorf("pdes: deadlock at t=%g with %d of %d procs blocked in Recv", res.VirtualTime, blocked, n)
	}
	return res, nil
}

// Msg is one message delivered to a Proc.
type Msg struct {
	From int     // sending rank
	Time float64 // arrival time
	Data float64
}

// Proc is one simulated process on the partitioned engine. Its methods may
// only be called from the process's own body function.
type Proc struct {
	s        Sched
	id       int
	now      float64
	resume   chan struct{}
	yield    chan struct{}
	mail     []Msg
	waiting  bool
	finished bool
	err      error
}

// ID returns the process's rank in [0, n).
func (p *Proc) ID() int { return p.id }

// Now returns the process's current virtual time.
func (p *Proc) Now() float64 { return p.now }

// Lookahead returns the engine's window length — the minimum legal
// cross-rank Send delay.
func (p *Proc) Lookahead() float64 { return p.s.Lookahead() }

// Advance consumes dt seconds of virtual time.
func (p *Proc) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("pdes: negative advance %g", dt))
	}
	p.s.At(p.id, p.now+dt, kindResume, 0, 0)
	p.pause()
}

// Send delivers data to rank dst after the given delay. Sends to ranks in
// other partitions need delay >= Lookahead; the engine reports a violation
// as a run error. Send does not block or advance time.
func (p *Proc) Send(dst int, delay, data float64) {
	p.s.At(dst, p.now+delay, kindMsg, 0, data)
}

// Recv returns the next undelivered message, blocking in virtual time until
// one arrives. Messages are delivered in global (Time, Src, Seq) order.
func (p *Proc) Recv() Msg {
	for len(p.mail) == 0 {
		p.waiting = true
		p.pause()
		p.waiting = false
	}
	m := p.mail[0]
	p.mail = p.mail[1:]
	return m
}

// Pending returns how many delivered messages wait in the mailbox.
func (p *Proc) Pending() int { return len(p.mail) }

// pause hands control back to the partition worker and parks until the
// next resume. The channel pair orders all memory operations between the
// worker and the proc goroutine, so only one of them touches engine state
// at a time.
func (p *Proc) pause() {
	p.yield <- struct{}{}
	<-p.resume
}

// Event kinds used by the procs adapter.
const (
	kindResume int32 = -1
	kindMsg    int32 = -2
)

type procsWorkload struct {
	n     int
	body  func(p *Proc)
	procs []*Proc
}

func (w *procsWorkload) Ranks() int { return w.n }

func (w *procsWorkload) Init(s Sched, rank int) {
	pr := &Proc{id: rank, resume: make(chan struct{}), yield: make(chan struct{})}
	w.procs[rank] = pr
	go func() {
		<-pr.resume
		defer func() {
			if r := recover(); r != nil {
				pr.err = fmt.Errorf("pdes: proc %d panicked: %v", pr.id, r)
			}
			pr.finished = true
			pr.yield <- struct{}{}
		}()
		w.body(pr)
	}()
	s.At(rank, 0, kindResume, 0, 0)
}

func (w *procsWorkload) Handle(s Sched, ev Event) {
	pr := w.procs[ev.Dst]
	switch ev.Kind {
	case kindResume:
		w.enter(s, pr, ev.Time)
	case kindMsg:
		pr.mail = append(pr.mail, Msg{From: int(ev.Src), Time: ev.Time, Data: ev.Data})
		if pr.waiting {
			w.enter(s, pr, ev.Time)
		}
	default:
		panic(fmt.Sprintf("pdes: procs adapter got foreign event kind %d", ev.Kind))
	}
}

// enter resumes the proc at virtual time t and parks the worker until the
// proc yields (by blocking in Advance/Recv, or by finishing).
func (w *procsWorkload) enter(s Sched, pr *Proc, t float64) {
	if pr.finished {
		return
	}
	pr.s = s
	pr.now = t
	pr.resume <- struct{}{}
	<-pr.yield
}
