package pgas

import (
	"fmt"
	"runtime"

	"tenways/internal/obs"
	"tenways/internal/pdes"
)

// kernel runs a world's rank programs on the pdes engine as a single
// engine rank. Each rank program is a goroutine written in plain sequential
// Go, resumed one at a time over the resume/yield channel pair, so a run is
// reproducible bit for bit whatever the host scheduler does. Rank
// resumptions and delivery closures are both self-events of engine rank 0,
// told apart by Kind; every event has Src 0, so the engine's (Time, Src,
// Seq) order is virtual time first, then emission order.
//
// One engine rank is not a shortcut: a pgas world cannot be partitioned.
// arrivalFrom reserves the receiver's NIC and GetAsync computes the reply's
// arrival, both from the sender's context, and ties between ranks must
// break by emission order rather than by rank.
type kernel struct {
	s     pdes.Sched // the engine's scheduler, valid while it handles an event
	now   float64
	procs []*proc
	fns   []func() // delivery closures, by slot
	free  []int32  // vacant slots of fns
	yield chan struct{}
	err   error // the run's first error
	abort bool  // the run is over: a resumed proc unwinds instead of running
}

// Event kinds of the kernel's workload; Step carries the rank to resume or
// the slot of the closure to call.
const (
	kindResume int32 = iota
	kindCall
)

// proc is one rank program. Its methods may only be called from the rank's
// own goroutine.
type proc struct {
	k      *kernel
	id     int
	resume chan struct{}
	done   bool
	err    error
}

// cond is a FIFO list of procs blocked until a delivery wakes them.
type cond []*proc

func (k *kernel) Ranks() int { return 1 }

func (k *kernel) Init(s pdes.Sched, _ int) {
	for _, p := range k.procs {
		s.At(0, 0, kindResume, int32(p.id), 0)
	}
}

func (k *kernel) Handle(s pdes.Sched, ev pdes.Event) {
	k.s, k.now = s, ev.Time
	if ev.Kind == kindCall {
		fn := k.fns[ev.Step]
		k.fns[ev.Step] = nil
		k.free = append(k.free, ev.Step)
		fn()
		return
	}
	p := k.procs[ev.Step]
	k.switchTo(p)
	if p.done && k.err == nil {
		k.err = p.err
	}
}

// switchTo hands the engine's goroutine over to p until p blocks or ends.
func (k *kernel) switchTo(p *proc) {
	p.resume <- struct{}{}
	<-k.yield
}

// at schedules fn to run in kernel context at virtual time t; a time in
// the past runs at now.
func (k *kernel) at(t float64, fn func()) {
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
		k.fns[slot] = fn
	} else {
		slot = int32(len(k.fns))
		k.fns = append(k.fns, fn)
	}
	k.s.At(0, t, kindCall, slot, 0)
}

// broadcast wakes every proc blocked on c at the current time, in the
// order they blocked.
func (k *kernel) broadcast(c *cond) {
	for _, p := range *c {
		k.s.At(0, k.now, kindResume, int32(p.id), 0)
	}
	*c = (*c)[:0]
}

// run starts n procs executing body and drives them on the engine until
// the event queue drains. It returns the final virtual time and the first
// error: a rank panic, a failed delivery closure, or ranks still blocked
// when nothing is left to wake them. Procs that have not finished when the
// queue drains are unwound before run returns, so no goroutine outlives it.
func (k *kernel) run(n int, look float64, reg *obs.Registry, body func(*proc)) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("pgas: need at least one rank, got %d", n)
	}
	*k = kernel{procs: make([]*proc, n), yield: make(chan struct{})}
	for i := range k.procs {
		p := &proc{k: k, id: i, resume: make(chan struct{})}
		k.procs[i] = p
		go func() {
			defer func() {
				if r := recover(); r != nil {
					p.err = fmt.Errorf("pgas: rank %d panicked: %v", p.id, r)
				}
				p.done = true
				k.yield <- struct{}{}
			}()
			p.park()
			body(p)
		}()
	}
	res, err := pdes.Run(k, pdes.Config{Partitions: 1, Workers: 1, Lookahead: look, Obs: reg})
	k.abort = true
	blocked := 0
	for _, p := range k.procs {
		if !p.done {
			blocked++
			k.switchTo(p)
		}
	}
	if k.err == nil {
		k.err = err
	}
	if k.err == nil && blocked > 0 {
		k.err = fmt.Errorf("pgas: deadlock at t=%g with %d blocked ranks", res.VirtualTime, blocked)
	}
	k.s = nil // a finished world does not pin the engine's queues
	return res.VirtualTime, k.err
}

// advance consumes dt seconds of virtual time; dt == 0 still lets every
// event already due at now run first. A negative dt is a cost-model bug
// and panics.
func (p *proc) advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("pgas: negative advance %g", dt))
	}
	p.sleepUntil(p.k.now + dt)
}

// advanceTo advances to t if t is in the future and is a no-op otherwise.
func (p *proc) advanceTo(t float64) {
	if t > p.k.now {
		p.sleepUntil(t)
	}
}

func (p *proc) sleepUntil(t float64) {
	p.k.s.At(0, t, kindResume, int32(p.id), 0)
	p.pause()
}

// wait blocks until a broadcast on c. A proc nobody wakes is reported as a
// deadlock when the run ends.
func (p *proc) wait(c *cond) {
	*c = append(*c, p)
	p.pause()
}

func (p *proc) pause() {
	p.k.yield <- struct{}{}
	p.park()
}

// park blocks until the kernel resumes p; once the run is over, the resume
// unwinds p's goroutine instead.
func (p *proc) park() {
	<-p.resume
	if p.k.abort {
		runtime.Goexit()
	}
}
