// Package pgas is a partitioned-global-address-space runtime in the UPC
// tradition, executing on the deterministic pdes engine (as one engine
// rank, see kernel.go) with message costs from a pluggable network model.
// Rank programs are plain Go functions; Put/Get and Send/Recv move real data
// between ranks (so algorithms are checked for correctness, not just timed),
// and Transfer and SendSize model traffic that nobody reads by its size alone,
// while the runtime advances virtual time and charges the energy meter for
// every flop computed, byte moved, and second spent idle.
//
// The runtime exposes both blocking and split-phase (async) one-sided
// operations; the contrast between them is the W6 (overlap) experiment.
//
// The package holds no package-level mutable state: all state lives in the
// World, so distinct Worlds may run concurrently from different goroutines.
// internal/tune relies on this to evaluate world-building objectives on a
// parallel worker pool. (A single World is still single-threaded — it is a
// deterministic simulation, not a thread-safe container.)
package pgas

import (
	"fmt"
	"sync/atomic"

	"tenways/internal/energy"
	"tenways/internal/machine"
	"tenways/internal/obs"
)

// CostModel abstracts per-message time and energy. netsim.Model implements
// it; SimpleCost adapts a bare machine.Spec.
type CostModel interface {
	MsgTime(src, dst int, bytes float64) float64
	MsgEnergy(src, dst int, bytes float64) float64
}

// SimpleCost is the topology-free LogGP cost model taken directly from a
// machine spec: every pair of ranks is one hop apart.
type SimpleCost struct{ Spec *machine.Spec }

// MsgTime implements CostModel.
func (c SimpleCost) MsgTime(src, dst int, bytes float64) float64 {
	if src == dst {
		return 2 * c.Spec.Net.OverheadSec
	}
	return c.Spec.MsgTimeSec(bytes)
}

// MsgEnergy implements CostModel.
func (c SimpleCost) MsgEnergy(src, dst int, bytes float64) float64 {
	if src == dst {
		return 0
	}
	return c.Spec.MsgEnergyJ(bytes)
}

// Perturber injects extra virtual-time delay into ranks' busy periods — the
// hook the chaos subsystem uses to model OS jitter, stragglers, and one-shot
// delay spikes. After a rank spends d busy seconds ending at virtual time
// now, the runtime asks the perturber for extra seconds of stolen time; the
// extra is charged to the Noise trace category (and to busy static power:
// the core is running, just not running the application). A nil perturber
// (the default) leaves every run byte-identical to an unperturbed one.
type Perturber interface {
	ComputeDelay(rank int, now, d float64) float64
}

// Stats aggregates world-wide communication activity.
type Stats struct {
	Messages  int64
	BytesSent int64
	Signals   int64
	Gets      int64
	Puts      int64
	Sends     int64
}

// World is one simulation instance: a set of ranks, a global address space
// partitioned across them, a cost model, and an energy meter.
type World struct {
	N     int
	spec  *machine.Spec
	cost  CostModel
	meter *energy.Meter

	k        kernel
	segments map[string][][]float64
	flags    []map[string]*flagVar
	boxes    []map[string]*mailbox
	busy     []float64 // per-rank busy seconds
	txFree   []float64 // per-rank send-side NIC free time (bandwidth gap)
	rxFree   []float64 // per-rank receive-side NIC free time
	attr     []attrLedger
	stats    Stats
	perturb  Perturber
	obs      *obs.Registry
}

type flagVar struct {
	count int64
	cond  cond
}

type mailbox struct {
	queue [][]float64
	cond  cond
}

// NewWorld creates a world of n ranks on the given machine with the given
// cost model (nil means SimpleCost over the spec) and meter (nil allocates
// a private one).
func NewWorld(n int, spec *machine.Spec, cost CostModel, meter *energy.Meter) *World {
	if cost == nil {
		cost = SimpleCost{Spec: spec}
	}
	if meter == nil {
		meter = energy.NewMeter()
	}
	w := &World{
		N:        n,
		spec:     spec,
		cost:     cost,
		meter:    meter,
		segments: make(map[string][][]float64),
		flags:    make([]map[string]*flagVar, n),
		boxes:    make([]map[string]*mailbox, n),
		busy:     make([]float64, n),
		txFree:   make([]float64, n),
		rxFree:   make([]float64, n),
		attr:     make([]attrLedger, n),
	}
	for i := range w.flags {
		w.flags[i] = make(map[string]*flagVar)
		w.boxes[i] = make(map[string]*mailbox)
	}
	return w
}

// Alloc creates a named segment with perRank elements in every rank's
// partition. It must be called before Run.
func (w *World) Alloc(name string, perRank int) {
	if _, dup := w.segments[name]; dup {
		panic(fmt.Sprintf("pgas: segment %q already allocated", name))
	}
	seg := make([][]float64, w.N)
	for i := range seg {
		seg[i] = make([]float64, perRank)
	}
	w.segments[name] = seg
}

// Meter returns the world's energy meter.
func (w *World) Meter() *energy.Meter { return w.meter }

// SetPerturber arms the world with a delay injector (nil disarms). Call
// before Run; the chaos package's Scenario.Arm does this.
func (w *World) SetPerturber(p Perturber) { w.perturb = p }

// SetObs redirects the world's metrics — the pdes engine's counters
// (pdes.events, pdes.virtual_seconds, ...) and the world's message stats —
// to the given registry. Worlds start with the silent nil registry; the
// lab runner injects a per-experiment registry so concurrent experiments
// never mix their metrics. Call before Run.
func (w *World) SetObs(reg *obs.Registry) { w.obs = reg }

// Obs returns the registry this world records into (nil records nothing).
func (w *World) Obs() *obs.Registry { return w.obs }

// Now returns the current virtual time in seconds. Useful to time-gated
// cost-model wrappers (link faults) that need the clock of the world they
// wrap.
func (w *World) Now() float64 { return w.k.now }

// Stats returns a snapshot of communication statistics.
func (w *World) Stats() Stats {
	return Stats{
		Messages:  atomic.LoadInt64(&w.stats.Messages),
		BytesSent: atomic.LoadInt64(&w.stats.BytesSent),
		Signals:   atomic.LoadInt64(&w.stats.Signals),
		Gets:      atomic.LoadInt64(&w.stats.Gets),
		Puts:      atomic.LoadInt64(&w.stats.Puts),
		Sends:     atomic.LoadInt64(&w.stats.Sends),
	}
}

// Run executes body on every rank and returns the simulated makespan in
// seconds. After the run, the meter additionally holds each rank's idle
// energy (makespan − busy time, at the machine's idle watts) and busy
// energy is charged as compute happens. A rank panic (such as a Put past a
// segment's end, caught on the issuing rank), a failed delivery and ranks
// left blocked forever are returned as errors.
func (w *World) Run(body func(r *Rank)) (float64, error) {
	end, err := w.k.run(w.N, w.lookahead(), w.obs, func(p *proc) {
		body(&Rank{w: w, p: p})
	})
	st := w.Stats()
	w.obs.Counter("pgas.messages").Add(st.Messages)
	w.obs.Counter("pgas.bytes_sent").Add(st.BytesSent)
	if err != nil {
		return end, err
	}
	for i := 0; i < w.N; i++ {
		idle := end - w.busy[i]
		if idle < 0 {
			idle = 0
		}
		w.meter.Add(energy.Idle, w.spec.IdleEnergyJ(idle))
	}
	return end, nil
}

// lookahead is the engine window for this world's machine: the network
// latency plus one core cycle. With a single engine rank every positive
// window gives the same results; the cycle keeps it positive when α = 0.
func (w *World) lookahead() float64 { return w.spec.Net.AlphaSec + w.spec.CycleSec() }

// Rank is the per-process view of the world.
type Rank struct {
	w *World
	p *proc
}

// ID returns the rank number in [0, N).
func (r *Rank) ID() int { return r.p.id }

// N returns the number of ranks.
func (r *Rank) N() int { return r.w.N }

// Now returns the current virtual time in seconds.
func (r *Rank) Now() float64 { return r.w.k.now }

// World returns the enclosing world.
func (r *Rank) World() *World { return r.w }

// Local returns this rank's partition of the named segment. Mutating it is
// free (it models register/cache-resident work); charge the cost separately
// with Compute.
func (r *Rank) Local(name string) []float64 {
	return r.w.segment(name)[r.ID()]
}

// Compute advances virtual time for a kernel that executes the given flops
// and moves the given bytes through local DRAM, taking the roofline maximum
// of the two (compute and memory streams overlap within a node). Energy is
// charged for both components, plus busy static power for the duration.
func (r *Rank) Compute(flops, dramBytes float64) {
	tf := r.w.spec.FlopTimeSec(flops)
	tm := dramBytes / r.w.spec.DRAM.BytesPerSec
	t := tf
	if tm > t {
		t = tm
	}
	r.w.meter.Add(energy.Flops, r.w.spec.FlopEnergyJ(flops))
	if dramBytes > 0 {
		r.w.meter.Add(energy.DRAM, r.w.spec.DRAMEnergyJ(dramBytes))
	}
	r.Lapse(t)
}

// Lapse advances virtual time by d seconds of busy work, charging busy
// static power. When a perturber is armed, the injected extra time follows
// the busy period: it burns busy power (the core is running OS or noise
// work) and is attributed to the Noise category, not to compute.
func (r *Rank) Lapse(d float64) {
	r.w.meter.Add(energy.Static, r.w.spec.BusyEnergyJ(d))
	r.w.busy[r.ID()] += d
	r.chargeCompute(d)
	r.p.advance(d)
	if pert := r.w.perturb; pert != nil {
		if extra := pert.ComputeDelay(r.ID(), r.Now(), d); extra > 0 {
			r.w.meter.Add(energy.Static, r.w.spec.BusyEnergyJ(extra))
			r.w.busy[r.ID()] += extra
			r.chargeNoise(extra)
			r.p.advance(extra)
		}
	}
}

// Idle advances virtual time by d seconds without doing work (waiting on an
// external system, W10); idle energy is charged at run end via the busy
// ledger, so nothing extra is charged here.
func (r *Rank) Idle(d float64) { r.p.advance(d) }

// Spin advances virtual time by d seconds of busy-waiting: no useful work,
// but full busy power — the W10 anti-pattern.
func (r *Rank) Spin(d float64) {
	r.w.meter.Add(energy.Static, r.w.spec.BusyEnergyJ(d))
	r.w.busy[r.ID()] += d
	r.chargeWait(d)
	r.p.advance(d)
}

// arrival computes when a message issued now by this rank lands at dst,
// with both NICs modeled as serial resources in the LogGP spirit:
//
//   - the sender cannot inject a message until the previous one's bytes
//     have left its NIC (the bandwidth gap G), so pipelined chunks cannot
//     exceed wire bandwidth;
//   - each delivery occupies the receiver's NIC for the larger of the
//     software overhead o and the message's drain time, so floods of
//     messages queue up at their destination.
//
// Local transfers skip both NICs.
func (r *Rank) arrival(dst int, bytes float64) float64 {
	return r.w.arrivalFrom(r.ID(), dst, r.Now(), bytes)
}

func (w *World) arrivalFrom(src, dst int, issue, bytes float64) float64 {
	if dst == src {
		return issue + w.cost.MsgTime(src, dst, bytes)
	}
	bw := w.spec.Net.BytesPerSec
	start := issue
	if w.txFree[src] > start {
		start = w.txFree[src]
	}
	w.txFree[src] = start + bytes/bw
	t := start + w.cost.MsgTime(src, dst, bytes)
	occ := w.spec.Net.OverheadSec
	if drain := bytes / bw; drain > occ {
		occ = drain
	}
	if queued := w.rxFree[dst] + occ; queued > t {
		t = queued
	}
	w.rxFree[dst] = t
	return t
}

// chargeMsg counts one message of the given bytes from src to dst: world
// stats and the network energy.
func (w *World) chargeMsg(src, dst int, bytes float64) {
	atomic.AddInt64(&w.stats.Messages, 1)
	atomic.AddInt64(&w.stats.BytesSent, int64(bytes))
	w.meter.Add(energy.Network, w.cost.MsgEnergy(src, dst, bytes))
}

// segment returns the named segment; an unknown name panics.
func (w *World) segment(name string) [][]float64 {
	seg, ok := w.segments[name]
	if !ok {
		panic(fmt.Sprintf("pgas: unknown segment %q", name))
	}
	return seg
}

// checkRank panics, on the issuing rank, when op addresses a rank outside
// [0, N).
func (r *Rank) checkRank(op string, rank int) {
	if rank < 0 || rank >= r.w.N {
		panic(fmt.Sprintf("pgas: %s addresses rank %d outside [0, %d)", op, rank, r.w.N))
	}
}

// span returns elements [off, off+n) of rank's partition of the named
// segment. It checks the range on the issuing rank, so an overrun names the
// op, the segment and the range instead of failing later inside a delivery.
func (r *Rank) span(op, name string, rank, off, n int) []float64 {
	r.checkRank(op, rank)
	part := r.w.segment(name)[rank]
	if off < 0 || n < 0 || off+n > len(part) {
		panic(fmt.Sprintf("pgas: %s [%d:%d) outside segment %q of %d elements at rank %d",
			op, off, off+n, name, len(part), rank))
	}
	return part[off : off+n]
}

// Put copies vals into rank dst's partition of the segment at off,
// blocking until the transfer completes (data is visible at dst from the
// completion time onward).
func (r *Rank) Put(dst int, name string, off int, vals []float64) {
	r.putVals("Put", dst, name, off, vals, false, "").Wait()
}

// PutAsync begins a one-sided put and returns immediately after the send
// overhead; the returned handle's Wait blocks until remote completion. The
// data is captured at issue time (source buffer may be reused).
func (r *Rank) PutAsync(dst int, name string, off int, vals []float64) *Handle {
	return r.putVals("PutAsync", dst, name, off, vals, false, "")
}

// PutSignal performs a one-sided put that additionally increments the named
// flag at dst when — and only when — the data has landed, the UPC-style
// "put with remote completion notification". It returns after the send
// overhead like PutAsync; receivers pair it with WaitSignal and may then
// read the segment safely.
func (r *Rank) PutSignal(dst int, name string, off int, vals []float64, flag string) *Handle {
	return r.putVals("PutSignal", dst, name, off, vals, true, flag)
}

// Transfer is PutSignal of words float64s that nobody reads: it costs,
// meters and counts exactly what PutSignal of a words-long slice would and
// bumps dst's flag when the bytes have landed, but it carries no payload and
// needs no segment. Traffic that a model sizes but never reads uses it.
func (r *Rank) Transfer(dst, words int, flag string) *Handle {
	r.checkRank("Transfer", dst)
	if words < 0 {
		panic(fmt.Sprintf("pgas: Transfer of %d words", words))
	}
	return r.put(dst, words, nil, true, flag)
}

// putVals captures vals at issue time and puts them through put, landing
// them in dst's partition of the named segment at off.
func (r *Rank) putVals(op string, dst int, name string, off int, vals []float64, signal bool, flag string) *Handle {
	into := r.span(op, name, dst, off, len(vals))
	data := append([]float64(nil), vals...)
	return r.put(dst, len(data), func() { copy(into, data) }, signal, flag)
}

// put is the one issue path of one-sided puts. It charges and counts a
// message of words float64s, reserves both NICs, and schedules a single
// delivery at the arrival time that runs land (nil when nothing is carried)
// and then, when signal is set, bumps dst's flag. The initiator pays only
// its software overhead before continuing.
func (r *Rank) put(dst, words int, land func(), signal bool, flag string) *Handle {
	w := r.w
	bytes := float64(8 * words)
	w.chargeMsg(r.ID(), dst, bytes)
	atomic.AddInt64(&w.stats.Puts, 1)
	if signal {
		atomic.AddInt64(&w.stats.Signals, 1)
	}
	done := r.arrival(dst, bytes)
	w.k.at(done, func() {
		if land != nil {
			land()
		}
		if signal {
			w.bump(dst, flag)
		}
	})
	r.Lapse(r.overhead())
	return &Handle{r: r, done: done}
}

// Get copies n elements from rank src's partition at off into a fresh
// slice, blocking for a request/response round trip.
func (r *Rank) Get(src int, name string, off, n int) []float64 {
	h, out := r.GetAsync(src, name, off, n)
	h.Wait()
	return out
}

// GetAsync begins a one-sided get. The returned slice is filled by the time
// the handle's Wait returns; reading it earlier is a race in the simulated
// program (and will read zeros).
func (r *Rank) GetAsync(src int, name string, off, n int) (*Handle, []float64) {
	from := r.span("GetAsync", name, src, off, n)
	out := make([]float64, n)
	bytes := float64(8 * n)
	// Request: a small message to src; response: the data back.
	const reqBytes = 16
	me := r.ID()
	w := r.w
	w.chargeMsg(me, src, reqBytes)
	atomic.AddInt64(&w.stats.Gets, 1)
	tReq := r.arrival(src, reqBytes)
	// The response is injected by src when the request arrives; compute
	// its delivery (including NIC queueing) now so the handle can wait.
	done := w.arrivalFrom(src, me, tReq, bytes)
	w.k.at(tReq, func() {
		// Data is read at the moment the request arrives at src.
		data := append([]float64(nil), from...)
		w.chargeMsg(src, me, bytes)
		w.k.at(done, func() { copy(out, data) })
	})
	r.Lapse(r.overhead())
	return &Handle{r: r, done: done}, out
}

// Signal increments the named flag at rank dst (fire-and-forget small
// message); receivers block on WaitSignal.
func (r *Rank) Signal(dst int, flag string) {
	r.checkRank("Signal", dst)
	const sigBytes = 8
	w := r.w
	w.chargeMsg(r.ID(), dst, sigBytes)
	atomic.AddInt64(&w.stats.Signals, 1)
	t := r.arrival(dst, sigBytes)
	w.k.at(t, func() { w.bump(dst, flag) })
	r.Lapse(r.overhead())
}

// bump increments rank's named flag and wakes its waiters.
func (w *World) bump(rank int, flag string) {
	fv := w.flag(rank, flag)
	fv.count++
	w.k.broadcast(&fv.cond)
}

// WaitSignal blocks until the local named flag has been signalled at least
// count times in total.
func (r *Rank) WaitSignal(flag string, count int64) {
	fv := r.w.flag(r.ID(), flag)
	t0 := r.Now()
	for fv.count < count {
		r.p.wait(&fv.cond)
	}
	r.chargeWait(r.Now() - t0)
}

// Send delivers a copy of vals into dst's named mailbox after one message
// time (two-sided messaging in the MPI style, on the same cost model as the
// one-sided operations). The sender continues after its software overhead.
// Messages to another rank arrive in the order they were issued, whatever
// their sizes and senders, because arrivals queue at the receiver's NIC
// (arrivalFrom); a rank's sends to itself skip that queue.
func (r *Rank) Send(dst int, box string, vals []float64) {
	r.send("Send", dst, box, len(vals), append([]float64(nil), vals...))
}

// SendSize is Send of words float64s with no contents: it costs, meters,
// counts and orders exactly what Send of a words-long slice would, and the
// matching Recv returns nil. Schedules that are only timed use it.
func (r *Rank) SendSize(dst int, box string, words int) {
	r.send("SendSize", dst, box, words, nil)
}

// send is the one issue path of two-sided messages. It charges and counts a
// message of words float64s, reserves both NICs, and schedules a single
// delivery at the arrival time that enqueues data (nil when nothing is
// carried) in dst's box. The sender pays only its software overhead.
func (r *Rank) send(op string, dst int, box string, words int, data []float64) {
	r.checkRank(op, dst)
	if words < 0 {
		panic(fmt.Sprintf("pgas: %s of %d words", op, words))
	}
	w := r.w
	bytes := float64(8 * words)
	w.chargeMsg(r.ID(), dst, bytes)
	atomic.AddInt64(&w.stats.Sends, 1)
	t := r.arrival(dst, bytes)
	w.k.at(t, func() {
		mb := w.mailbox(dst, box)
		mb.queue = append(mb.queue, data)
		w.k.broadcast(&mb.cond)
	})
	r.Lapse(r.overhead())
}

// Recv blocks until the local named mailbox is non-empty and dequeues the
// oldest message (nil for a SendSize). The queue drops its reference to the
// message, so a consumed payload is garbage once the caller lets go of it.
func (r *Rank) Recv(box string) []float64 {
	mb := r.w.mailbox(r.ID(), box)
	t0 := r.Now()
	for len(mb.queue) == 0 {
		r.p.wait(&mb.cond)
	}
	r.chargeWait(r.Now() - t0)
	msg := mb.queue[0]
	mb.queue[0] = nil
	mb.queue = mb.queue[1:]
	return msg
}

func (w *World) mailbox(rank int, name string) *mailbox {
	mb, ok := w.boxes[rank][name]
	if !ok {
		mb = &mailbox{}
		w.boxes[rank][name] = mb
	}
	return mb
}

func (w *World) flag(rank int, name string) *flagVar {
	fv, ok := w.flags[rank][name]
	if !ok {
		fv = &flagVar{}
		w.flags[rank][name] = fv
	}
	return fv
}

func (r *Rank) overhead() float64 { return r.w.spec.Net.OverheadSec }

// Handle represents an outstanding split-phase operation.
type Handle struct {
	r    *Rank
	done float64
}

// Wait blocks until the operation's completion time.
func (h *Handle) Wait() {
	t0 := h.r.Now()
	h.r.p.advanceTo(h.done)
	h.r.chargeWait(h.r.Now() - t0)
}

// Done reports whether the operation has already completed.
func (h *Handle) Done() bool { return h.r.Now() >= h.done }
