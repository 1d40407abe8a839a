package pdes

import (
	"errors"
	"flag"
	"math"
	"strings"
	"testing"
)

var (
	flagQueue   = flag.String("pdes-queue", "", `override Config.Queue in package tests ("heap" or "ladder")`)
	flagBarrier = flag.String("pdes-barrier", "", `override Config.Barrier in package tests ("chan" or "sense")`)
)

// testCfg applies the package test flags through the kinds' Parse
// functions, so CI can re-run the whole determinism suite under the
// non-default queue and barrier disciplines:
//
//	go test -race ./internal/pdes -args -pdes-queue=heap -pdes-barrier=chan
func testCfg(cfg Config) Config {
	if *flagQueue != "" {
		k, err := ParseQueueKind(*flagQueue)
		if err != nil {
			panic(err)
		}
		cfg.Queue = k
	}
	if *flagBarrier != "" {
		k, err := ParseBarrierKind(*flagBarrier)
		if err != nil {
			panic(err)
		}
		cfg.Barrier = k
	}
	return cfg
}

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
	bres, err := Run(base, testCfg(Config{Partitions: 1, Workers: 1, Lookahead: base.MinDelay()}))
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
		res, err := Run(w, testCfg(cfg))
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
// against the single-heap sim.Kernel on the same workload.
func TestIdleWaveMatchesClassicKernel(t *testing.T) {
	const n, steps = 256, 8
	const c = 50e-6
	offsets, delays := []int{1, 3}, []float64{2e-6, 4e-6}

	pw := mustWave(t, n, steps, c, 3*c, offsets, delays)
	pres, err := Run(pw, testCfg(Config{Partitions: 8, Workers: 4, Lookahead: pw.MinDelay()}))
	if err != nil {
		t.Fatalf("partitioned run: %v", err)
	}

	sw := mustWave(t, n, steps, c, 3*c, offsets, delays)
	svt, sev, err := RunOnSim(sw, sw.MinDelay(), nil)
	if err != nil {
		t.Fatalf("classic run: %v", err)
	}

	if pres.VirtualTime != svt {
		t.Errorf("virtual time: partitioned %g, classic %g", pres.VirtualTime, svt)
	}
	if pres.Events != sev {
		t.Errorf("events: partitioned %d, classic %d", pres.Events, sev)
	}
	for r := 0; r < n; r++ {
		if pw.Arrival(r) != sw.Arrival(r) {
			t.Fatalf("rank %d arrival: partitioned %g, classic %g", r, pw.Arrival(r), sw.Arrival(r))
		}
	}
}

// TestIdleWaveSpeedMatchesAnalytic checks the physics: the measured wave
// speed from the linear fit tracks d_max/(c+delta_max).
func TestIdleWaveSpeedMatchesAnalytic(t *testing.T) {
	const n, steps = 2048, 12
	const c = 50e-6
	w := mustWave(t, n, steps, c, 3*c, []int{1}, []float64{2e-6})
	if _, err := Run(w, testCfg(Config{Partitions: 8, Lookahead: w.MinDelay()})); err != nil {
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
	res, err := Run(w, testCfg(Config{Partitions: 4, Lookahead: w.MinDelay()}))
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
	_, err := Run(w, testCfg(Config{Partitions: 2, Lookahead: look}))
	if err == nil || !strings.Contains(err.Error(), "lookahead violation") {
		t.Fatalf("got %v, want a lookahead violation", err)
	}

	// The same emission with delay >= lookahead is legal.
	ok := &crossEmit{n: 2, at: look, delay: look}
	if _, err := Run(ok, testCfg(Config{Partitions: 2, Lookahead: look})); err != nil {
		t.Fatalf("legal delay rejected: %v", err)
	}

	// And on a single partition nothing crosses, so no gate applies.
	if _, err := Run(&crossEmit{n: 2, at: look, delay: look / 2}, testCfg(Config{Partitions: 1, Lookahead: look})); err != nil {
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
	_, err := Run(&badDst{n: 4}, testCfg(Config{Partitions: 2, Lookahead: 1e-6}))
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
	_, err := Run(&panicky{n: 4}, testCfg(Config{Partitions: 4, Lookahead: 1e-6}))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("got %v, want the recovered handler panic", err)
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
		{"bucket width under heap", Config{Lookahead: 1e-6, Queue: QueueHeap, BucketWidth: 1e-7}, ErrBucketWidth},
		{"queue kind out of range", Config{Lookahead: 1e-6, Queue: QueueKind(7)}, ErrConfig},
		{"barrier kind out of range", Config{Lookahead: 1e-6, Barrier: BarrierKind(7)}, ErrConfig},
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

// TestKindParseRoundTrip pins the canonical parse surface: each kind's
// String form parses back to itself, and failures are typed ErrConfig.
func TestKindParseRoundTrip(t *testing.T) {
	for _, q := range []QueueKind{QueueLadder, QueueHeap} {
		got, err := ParseQueueKind(q.String())
		if err != nil || got != q {
			t.Errorf("ParseQueueKind(%q) = %v, %v", q.String(), got, err)
		}
	}
	for _, b := range []BarrierKind{BarrierSense, BarrierChan} {
		got, err := ParseBarrierKind(b.String())
		if err != nil || got != b {
			t.Errorf("ParseBarrierKind(%q) = %v, %v", b.String(), got, err)
		}
	}
	if _, err := ParseQueueKind("splay"); !errors.Is(err, ErrConfig) {
		t.Errorf("bad queue kind: got %v, want ErrConfig", err)
	}
	if _, err := ParseBarrierKind("tree"); !errors.Is(err, ErrConfig) {
		t.Errorf("bad barrier kind: got %v, want ErrConfig", err)
	}
}

func TestCostModelShape(t *testing.T) {
	m := CostModel{
		Events: 1 << 22, Ranks: 1 << 20, Horizon: 1e-3,
		EventSec: 100e-9, BarrierSec: 5e-6, PartSec: 2e-6,
	}
	const cores = 8
	const look = 2e-6

	if m.Wall(1, cores, look) <= m.Wall(cores, cores, look) {
		t.Error("one partition should cost more than one per core")
	}
	if m.Wall(8, cores, look/8) <= m.Wall(8, cores, look) {
		t.Error("a narrower window should cost more")
	}
	if !math.IsInf(m.Wall(8, cores, 0), 1) {
		t.Error("zero lookahead should cost +Inf")
	}

	// Unimodal over a doubling grid: once the curve turns up it stays up —
	// required by the golden-section tuner that owns these knobs.
	prev := math.Inf(1)
	rising := false
	for parts := 1; parts <= 1024; parts *= 2 {
		wall := m.Wall(parts, cores, look)
		if wall > prev {
			rising = true
		} else if rising {
			t.Fatalf("cost model not unimodal: dips again at parts=%d", parts)
		}
		prev = wall
	}
}

func TestLadderCostModelShape(t *testing.T) {
	m := CostModel{
		Events: 1 << 22, Ranks: 1 << 20, Horizon: 1e-3,
		EventSec: 100e-9, BarrierSec: 5e-6, PartSec: 2e-6, BucketSec: 1e-6,
	}
	const cores = 8
	const look = 2e-6

	if !math.IsInf(m.LadderWall(8, cores, look, 0), 1) {
		t.Error("zero bucket width should cost +Inf")
	}
	// The ladder at any sane width beats the heap model: that is the
	// tentpole's claim in model form.
	if m.LadderWall(8, cores, look, look/4) >= m.Wall(8, cores, look) {
		t.Error("ladder model should beat the heap model at the default width")
	}

	// Unimodal in the bucket width over a doubling grid — required by the
	// golden-section tuner owning F29-bucket.
	prev := math.Inf(1)
	rising := false
	for div := 1; div <= 1<<12; div *= 2 {
		wall := m.LadderWall(8, cores, look, look/float64(div))
		if wall > prev {
			rising = true
		} else if rising {
			t.Fatalf("ladder cost model not unimodal: dips again at divisor=%d", div)
		}
		prev = wall
	}
}
