package pdes

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func mustWave(t *testing.T, n, steps int, compute, spike float64, offsets []int, delays []float64) *IdleWave {
	t.Helper()
	w, err := NewIdleWave(n, steps, compute, spike, offsets, delays)
	if err != nil {
		t.Fatalf("NewIdleWave: %v", err)
	}
	return w
}

// TestIdleWaveDeterministicAcrossConfigs is the engine's core contract: the
// same workload produces byte-identical virtual results at any partition and
// worker count, including counts that do not divide the rank count.
func TestIdleWaveDeterministicAcrossConfigs(t *testing.T) {
	const n, steps = 512, 10
	const c = 50e-6
	mk := func() *IdleWave {
		return mustWave(t, n, steps, c, 3*c, []int{1, 4}, []float64{2e-6, 3e-6})
	}

	base := mk()
	bres, err := Run(base, Config{Partitions: 1, Workers: 1, Lookahead: base.MinDelay()})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if bres.Events == 0 || bres.VirtualTime <= 0 {
		t.Fatalf("baseline produced no work: %+v", bres)
	}

	configs := []Config{
		{Partitions: 2, Workers: 1},
		{Partitions: 4, Workers: 2},
		{Partitions: 8, Workers: 8},
		{Partitions: 5, Workers: 3}, // does not divide 512
		{Partitions: 64, Workers: 4},
		{Partitions: 256, Workers: 0}, // the full batch matrix, clamped workers
	}
	for _, cfg := range configs {
		w := mk()
		cfg.Lookahead = w.MinDelay()
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatalf("run %d/%d: %v", cfg.Partitions, cfg.Workers, err)
		}
		if res.Events != bres.Events {
			t.Errorf("parts=%d workers=%d: %d events, baseline %d", cfg.Partitions, cfg.Workers, res.Events, bres.Events)
		}
		if res.VirtualTime != bres.VirtualTime {
			t.Errorf("parts=%d workers=%d: virtual time %g, baseline %g", cfg.Partitions, cfg.Workers, res.VirtualTime, bres.VirtualTime)
		}
		for r := 0; r < n; r++ {
			if w.Arrival(r) != base.Arrival(r) {
				t.Fatalf("parts=%d workers=%d: rank %d arrival %g, baseline %g", cfg.Partitions, cfg.Workers, r, w.Arrival(r), base.Arrival(r))
			}
		}
	}

	if bres.Partitions != 1 || bres.Workers != 1 {
		t.Errorf("baseline resolved to %d/%d, want 1/1", bres.Partitions, bres.Workers)
	}
}

// TestIdleWaveMatchesClassicKernel cross-checks the partitioned engine
// against the sequential reference driver (runSequential) on the same
// workload.
func TestIdleWaveMatchesClassicKernel(t *testing.T) {
	const n, steps = 256, 8
	const c = 50e-6
	offsets, delays := []int{1, 3}, []float64{2e-6, 4e-6}

	pw := mustWave(t, n, steps, c, 3*c, offsets, delays)
	pres, err := Run(pw, Config{Partitions: 8, Workers: 4, Lookahead: pw.MinDelay()})
	if err != nil {
		t.Fatalf("partitioned run: %v", err)
	}

	sw := mustWave(t, n, steps, c, 3*c, offsets, delays)
	svt, sev := runSequential(sw)

	if pres.VirtualTime != svt {
		t.Errorf("virtual time: partitioned %g, sequential %g", pres.VirtualTime, svt)
	}
	if pres.Events != sev {
		t.Errorf("events: partitioned %d, sequential %d", pres.Events, sev)
	}
	for r := 0; r < n; r++ {
		if pw.Arrival(r) != sw.Arrival(r) {
			t.Fatalf("rank %d arrival: partitioned %g, sequential %g", r, pw.Arrival(r), sw.Arrival(r))
		}
	}
}

// frontierPingPong pairs ranks (0<->1, 2<->3, ...) for a ping-pong whose
// every arrival emits a burst of zero-delay self ticks: each lands at the
// popped time exactly, behind the ladder's merge frontier, and interleaves
// with the cross arrivals, whose delays differ by rank in steps of look/8.
// The ledger folds every handled event in order, so one reordering changes
// it.
type frontierPingPong struct {
	n, rounds int
	look      float64
	ledger    []float64
}

const (
	kindPing int32 = iota
	kindTick
)

func (w *frontierPingPong) Ranks() int { return w.n }

func (w *frontierPingPong) delay(rank int32, round int) float64 {
	return w.look * (float64(1+round%2) + float64(rank%4)/8)
}

func (w *frontierPingPong) Init(s Sched, rank int) {
	s.At(rank^1, w.delay(int32(rank), 0), kindPing, 0, float64(rank))
}

func (w *frontierPingPong) Handle(s Sched, ev Event) {
	r := ev.Dst
	switch ev.Kind {
	case kindPing:
		w.ledger[r] = w.ledger[r]*0.5 + ev.Data*7 + ev.Time*1e6
		i := int(ev.Step)
		s.At(int(r), ev.Time, kindTick, int32(i%3), 0)
		if i+1 < w.rounds {
			s.At(int(r^1), ev.Time+w.delay(r, i), kindPing, int32(i+1), float64(i))
		}
	case kindTick:
		w.ledger[r] = w.ledger[r]*0.5 + ev.Time*1e6
		if ev.Step > 0 {
			s.At(int(r), ev.Time, kindTick, ev.Step-1, 0)
		}
	}
}

// TestResumeLadderFrontierAtBoundaries targets the ladder's binary-search
// run insertion behind the merge frontier across partition boundaries.
// Tiny bucket widths force constant respreads and a huge one funnels every
// event through one bucket; the per-rank ledgers must match the serial run
// at every partition count.
func TestResumeLadderFrontierAtBoundaries(t *testing.T) {
	const n, rounds = 48, 12
	const look = 1e-6
	run1 := func(cfg Config, width float64) ([]float64, Result) {
		t.Helper()
		w := &frontierPingPong{n: n, rounds: rounds, look: look, ledger: make([]float64, n)}
		cfg.Lookahead = look
		res, err := run(w, cfg, width)
		if err != nil {
			t.Fatalf("parts=%d width=%g: %v", cfg.Partitions, width, err)
		}
		return w.ledger, res
	}
	base, bres := run1(Config{Partitions: 1, Workers: 1}, look/4)
	if bres.Events == 0 {
		t.Fatal("frontier ping-pong processed no events")
	}
	for _, c := range []struct {
		cfg   Config
		width float64
	}{
		{Config{Partitions: 3, Workers: 1}, look / 128}, // odd size: pairs straddle boundaries
		{Config{Partitions: 5, Workers: 2}, look / 128},
		{Config{Partitions: 16, Workers: 4}, look / 16},
		{Config{Partitions: 48, Workers: 8}, look * 1e4}, // every pair cross, one giant bucket
	} {
		ledger, res := run1(c.cfg, c.width)
		if res.Events != bres.Events || res.VirtualTime != bres.VirtualTime {
			t.Errorf("parts=%d width=%g: (%d events, t=%g), baseline (%d, t=%g)",
				c.cfg.Partitions, c.width, res.Events, res.VirtualTime, bres.Events, bres.VirtualTime)
		}
		for r := range ledger {
			if ledger[r] != base[r] {
				t.Fatalf("parts=%d width=%g: rank %d ledger %g, baseline %g",
					c.cfg.Partitions, c.width, r, ledger[r], base[r])
			}
		}
	}
}

// inbox records the events rank 1 receives. Ranks 0 and 2 send it
// equal-time messages; rank 0's carries the larger Seq, so an order that
// skipped Src would put rank 2's first.
type inbox struct{ got []Event }

func (w *inbox) Ranks() int { return 3 }

func (w *inbox) Init(s Sched, rank int) {
	switch rank {
	case 0:
		s.At(1, 2e-6, 0, 0, 9)
		s.At(1, 1e-6, 0, 0, 10)
	case 2:
		s.At(1, 1e-6, 0, 0, 12)
		s.At(1, 1e-6, 0, 0, 13)
	}
}

func (w *inbox) Handle(_ Sched, ev Event) { w.got = append(w.got, ev) }

// TestMessageOrder: simultaneous arrivals are handled in (Time, Src, Seq)
// order no matter how the senders are partitioned.
func TestMessageOrder(t *testing.T) {
	for _, parts := range []int{1, 3} {
		w := &inbox{}
		if _, err := Run(w, Config{Partitions: parts, Lookahead: 1e-6}); err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		got := ""
		for _, ev := range w.got {
			got += fmt.Sprintf(" %d:%g", ev.Src, ev.Data)
		}
		if want := " 0:10 2:12 2:13 0:9"; got != want {
			t.Errorf("parts=%d: handled src:payload%s, want%s", parts, got, want)
		}
	}
}

// TestEventLayout pins Event at 40 bytes: widening Seq to 64 bits filled
// the padding the 32-bit counter left.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 40", got)
	}
}

// TestIdleWaveSpeedMatchesAnalytic checks the physics: the measured wave
// speed from the linear fit tracks d_max/(c+delta_max).
func TestIdleWaveSpeedMatchesAnalytic(t *testing.T) {
	const n, steps = 2048, 12
	const c = 50e-6
	w := mustWave(t, n, steps, c, 3*c, []int{1}, []float64{2e-6})
	if _, err := Run(w, Config{Partitions: 8, Lookahead: w.MinDelay()}); err != nil {
		t.Fatalf("run: %v", err)
	}
	speed, fit, perturbed, err := w.WaveSpeed()
	if err != nil {
		t.Fatalf("WaveSpeed: %v", err)
	}
	analytic := w.AnalyticSpeed()
	if ratio := speed / analytic; math.Abs(ratio-1) > 0.1 {
		t.Errorf("measured speed %g vs analytic %g (ratio %.3f), want within 10%%", speed, analytic, ratio)
	}
	if fit.R2 < 0.98 {
		t.Errorf("fit R2 = %g, want >= 0.98", fit.R2)
	}
	// The spike perturbs roughly one longest-offset hop per step.
	if perturbed < steps || perturbed > 4*steps {
		t.Errorf("perturbed %d ranks, expected on the order of %d", perturbed, steps)
	}
}

// TestIdleWaveQuietStaysOnSchedule: with no spike every rank holds the
// lockstep cadence, no arrival is recorded, and the run ends at the exact
// analytic makespan.
func TestIdleWaveQuietStaysOnSchedule(t *testing.T) {
	const n, steps = 128, 6
	const c = 50e-6
	w := mustWave(t, n, steps, c, 0, []int{1, 2}, []float64{2e-6, 3e-6})
	res, err := Run(w, Config{Partitions: 4, Lookahead: w.MinDelay()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for r := 0; r < n; r++ {
		if w.Arrival(r) >= 0 {
			t.Fatalf("quiet run recorded an arrival on rank %d at %g", r, w.Arrival(r))
		}
	}
	if _, _, _, err := w.WaveSpeed(); err == nil {
		t.Error("WaveSpeed succeeded on a quiet run, want an error")
	}
	// Last event: the step-(steps-1) halos land at steps*cadence.
	want := float64(steps) * w.cadence()
	if math.Abs(res.VirtualTime-want) > 1e-9*want {
		t.Errorf("virtual time %g, want %g", res.VirtualTime, want)
	}
	// Per step: one compute completion per rank plus 2*(n-d) halos per offset.
	halos := uint64(0)
	for _, d := range w.Offsets {
		halos += uint64(2 * (n - d))
	}
	if want := uint64(steps) * (n + halos); res.Events != want {
		t.Errorf("events %d, want %d", res.Events, want)
	}
}

// crossEmit schedules one self event on rank 0, whose handler emits to the
// far rank with a configurable delay — the probe for the lookahead gate.
type crossEmit struct {
	n     int
	at    float64
	delay float64
}

func (w *crossEmit) Ranks() int { return w.n }
func (w *crossEmit) Init(s Sched, rank int) {
	if rank == 0 {
		s.At(0, w.at, 1, 0, 0)
	}
}
func (w *crossEmit) Handle(s Sched, ev Event) {
	if ev.Kind == 1 {
		s.At(w.n-1, ev.Time+w.delay, 2, 0, 0)
	}
}

func TestLookaheadViolationReported(t *testing.T) {
	const look = 1e-6
	w := &crossEmit{n: 2, at: look, delay: look / 2}
	_, err := Run(w, Config{Partitions: 2, Lookahead: look})
	if err == nil || !strings.Contains(err.Error(), "lookahead violation") {
		t.Fatalf("got %v, want a lookahead violation", err)
	}

	// The same emission with delay >= lookahead is legal.
	ok := &crossEmit{n: 2, at: look, delay: look}
	if _, err := Run(ok, Config{Partitions: 2, Lookahead: look}); err != nil {
		t.Fatalf("legal delay rejected: %v", err)
	}

	// And on a single partition nothing crosses, so no gate applies.
	if _, err := Run(&crossEmit{n: 2, at: look, delay: look / 2}, Config{Partitions: 1, Lookahead: look}); err != nil {
		t.Fatalf("single-partition run rejected: %v", err)
	}
}

type badDst struct{ n int }

func (w *badDst) Ranks() int { return w.n }
func (w *badDst) Init(s Sched, rank int) {
	if rank == 0 {
		s.At(w.n+3, 0, 1, 0, 0)
	}
}
func (w *badDst) Handle(Sched, Event) {}

func TestBadDestinationReported(t *testing.T) {
	_, err := Run(&badDst{n: 4}, Config{Partitions: 2, Lookahead: 1e-6})
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("got %v, want an out-of-range destination error", err)
	}
}

type panicky struct{ n int }

func (w *panicky) Ranks() int { return w.n }
func (w *panicky) Init(s Sched, rank int) {
	s.At(rank, 1e-6, 1, 0, 0)
}
func (w *panicky) Handle(s Sched, ev Event) {
	if ev.Dst == 1 {
		panic("boom")
	}
}

func TestHandlerPanicRecovered(t *testing.T) {
	_, err := Run(&panicky{n: 4}, Config{Partitions: 4, Lookahead: 1e-6})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("got %v, want the recovered handler panic", err)
	}
}

// ticker has every rank tick once per lookahead for a fixed number of
// steps, and rank 0 fail at step failAt: by panicking, or by emitting a
// cross-partition event inside the current window. Rank 0 sits in
// partition 0, which the caller of Run handles itself.
type ticker struct {
	n, steps, failAt int
	look             float64
	violate          bool
}

func (w *ticker) Ranks() int { return w.n }
func (w *ticker) Init(s Sched, rank int) {
	s.At(rank, w.look, 1, 1, 0)
}
func (w *ticker) Handle(s Sched, ev Event) {
	if ev.Dst == 0 && int(ev.Step) == w.failAt {
		if !w.violate {
			panic("boom")
		}
		s.At(w.n-1, ev.Time+w.look/2, 1, ev.Step, 0)
	}
	if int(ev.Step) < w.steps {
		s.At(int(ev.Dst), ev.Time+w.look, 1, ev.Step+1, 0)
	}
}

// TestCallerStrideFailureStopsHelpers fails the caller's own stride while
// the helpers run: every run must return the error, and every helper
// goroutine must exit before Run returns to its caller's goroutine count.
func TestCallerStrideFailureStopsHelpers(t *testing.T) {
	const look = 1e-6
	for _, violate := range []bool{false, true} {
		for _, nw := range []int{2, 4} {
			w := &ticker{n: 16, steps: 50, failAt: 10, look: look, violate: violate}
			before := runtime.NumGoroutine()
			_, err := Run(w, Config{Partitions: 4, Workers: nw, Lookahead: look})
			want := "partition 0 handler panicked: boom"
			if violate {
				want = "lookahead violation: rank 0 -> rank 15"
			}
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("violate=%v workers=%d: got %v, want %q", violate, nw, err, want)
			}
			// wg.Done runs just before a helper goroutine exits, so allow
			// the scheduler a moment to retire it.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			// Only a rise is a leak: a goroutine of an earlier test may
			// retire during the run and leave fewer than before.
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("violate=%v workers=%d: %d goroutines after the run, %d before", violate, nw, n, before)
			}
		}
	}
}

func TestConfigErrors(t *testing.T) {
	w := mustWave(t, 4, 1, 1e-6, 0, []int{1}, []float64{1e-6})
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"zero lookahead", Config{}, ErrLookahead},
		{"negative lookahead", Config{Lookahead: -1}, ErrLookahead},
		{"too many partitions", Config{Lookahead: 1e-6, Partitions: 1 << 20}, ErrPartitions},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("Validate %s: got %v, want %v", tc.name, err, tc.want)
		}
		// Run consolidates the same checks, and every failure is ErrConfig.
		if _, err := Run(w, tc.cfg); !errors.Is(err, tc.want) || !errors.Is(err, ErrConfig) {
			t.Errorf("Run %s: got %v, want %v wrapping ErrConfig", tc.name, err, tc.want)
		}
	}
	// Run still resolves defaults Validate leaves alone.
	if err := (Config{Lookahead: 1e-6, Partitions: -3, Workers: -2}).Validate(); err != nil {
		t.Errorf("defaults should validate: %v", err)
	}
}
