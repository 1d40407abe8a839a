// Package chaos is the fault- and noise-injection subsystem: it makes the
// otherwise perfectly quiet laboratory misbehave the way real machines do.
// Every run in the rest of the suite models only *intrinsic* waiting
// (imbalance, latency, synchronisation); chaos adds the *extrinsic* kind —
// OS jitter, stragglers, delay spikes — as pluggable injectors that hook
// the pgas runtime's Perturber interface.
//
// All injectors are seeded and deterministic: each rank draws from its own
// splitmix64 stream, so a fixed seed reproduces a chaos run bit-for-bit
// regardless of host scheduling, and injected time is attributed to the
// trace.Noise category so core.Diagnose can call it out. The package also
// carries the remedied side — idle-wave experiments with noise-absorbing
// synchronisation (idlewave.go), over-decomposition with rebalancing for
// stragglers (straggler.go), and checkpoint/replay for rank failure
// (checkpoint.go).
package chaos

import (
	"fmt"

	"tenways/internal/obs"
	"tenways/internal/pgas"
	"tenways/internal/workload"
)

// DefaultSeed is the scenario seed the evaluation suite uses when the
// caller does not pick one (core.Config.Seed, wastelab -seed): the year of
// the keynote. A fixed seed keeps every chaos run bit-reproducible.
const DefaultSeed uint64 = 2009

// Dist selects the shape of a jitter injector's delay distribution.
type Dist int

// The jitter distributions.
const (
	// Uniform draws delays uniformly in [0, 2·mean): benign, short-tailed
	// noise in the style of scattered OS housekeeping.
	Uniform Dist = iota
	// Exponential draws delays with the given mean: the memoryless model
	// of interrupt-style noise used in the idle-wave literature.
	Exponential
	// Bursty injects rarely (one busy period in ten) but ten times as
	// hard: daemon wakeups and page-cache flushes rather than ticks.
	Bursty
)

// String names the distribution.
func (d Dist) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Exponential:
		return "exponential"
	case Bursty:
		return "bursty"
	default:
		return fmt.Sprintf("dist(%d)", int(d))
	}
}

// Injector perturbs a simulated run: after a rank spends d busy seconds
// ending at virtual time now, Delay returns the extra seconds stolen from
// it. Implementations must be deterministic given their seed and the
// per-rank call sequence (the kernel serialises each rank's calls, so
// per-rank state needs no locking).
type Injector interface {
	Name() string
	Delay(rank int, now, d float64) float64
}

// Jitter injects per-rank compute jitter: every busy period is stretched by
// a random delay whose expectation is frac of the period, drawn from the
// chosen distribution on the rank's own seeded stream.
type Jitter struct {
	dist Dist
	frac float64
	rngs []*workload.Rand
}

// NewJitter creates a jitter injector for worlds of up to ranks ranks with
// expected injected time frac·(busy time), per-rank streams derived from
// seed.
func NewJitter(dist Dist, frac float64, seed uint64, ranks int) *Jitter {
	j := &Jitter{dist: dist, frac: frac, rngs: make([]*workload.Rand, ranks)}
	for i := range j.rngs {
		// splitmix64 gives independent streams for consecutive seeds.
		j.rngs[i] = workload.NewRand(seed + uint64(i)*0x9e3779b97f4a7c15)
	}
	return j
}

// Name implements Injector.
func (j *Jitter) Name() string { return fmt.Sprintf("jitter-%s-%.0f%%", j.dist, 100*j.frac) }

// Delay implements Injector.
func (j *Jitter) Delay(rank int, now, d float64) float64 {
	if rank >= len(j.rngs) || j.frac <= 0 || d <= 0 {
		return 0
	}
	rng := j.rngs[rank]
	mean := j.frac * d
	switch j.dist {
	case Exponential:
		return mean * rng.Exp()
	case Bursty:
		// One period in ten is hit, ten times as hard: same mean, heavy
		// bursts — the distribution idle waves are most sensitive to.
		if rng.Float64() < 0.1 {
			return 10 * mean
		}
		return 0
	default: // Uniform
		return 2 * mean * rng.Float64()
	}
}

// Straggler slows one rank down by a constant factor within a virtual-time
// window: each busy period of d seconds is followed by (Factor−1)·d of
// injected stall, so the rank behaves as if its clock were divided.
type Straggler struct {
	Rank   int
	Factor float64 // ≥ 1; 2 means the rank runs at half speed
	From   float64 // window start (virtual seconds)
	To     float64 // window end; 0 means forever
}

// NewStraggler creates a permanent straggler injector.
func NewStraggler(rank int, factor float64) *Straggler {
	return &Straggler{Rank: rank, Factor: factor}
}

// Name implements Injector.
func (s *Straggler) Name() string { return fmt.Sprintf("straggler-r%d-%.1fx", s.Rank, s.Factor) }

// Delay implements Injector.
func (s *Straggler) Delay(rank int, now, d float64) float64 {
	if rank != s.Rank || s.Factor <= 1 || d <= 0 {
		return 0
	}
	if now < s.From || (s.To > 0 && now >= s.To) {
		return 0
	}
	return (s.Factor - 1) * d
}

// Spike injects a single delay of Duration seconds into Rank's first busy
// period that completes at or after virtual time At — the one-shot
// perturbation whose propagation through communication dependencies is the
// idle wave. The zero time (At = 0) fires on the rank's first busy period.
type Spike struct {
	Rank     int
	At       float64
	Duration float64
	fired    bool
}

// NewSpike creates a one-shot delay spike.
func NewSpike(rank int, at, duration float64) *Spike {
	return &Spike{Rank: rank, At: at, Duration: duration}
}

// Name implements Injector.
func (s *Spike) Name() string {
	return fmt.Sprintf("spike-r%d@%gs+%gs", s.Rank, s.At, s.Duration)
}

// Delay implements Injector.
func (s *Spike) Delay(rank int, now, d float64) float64 {
	if s.fired || rank != s.Rank || now < s.At {
		return 0
	}
	s.fired = true
	return s.Duration
}

// Scenario composes injectors into one pgas.Perturber. A zero/empty
// scenario injects nothing.
type Scenario struct {
	injectors []Injector

	// Injection instruments, bound at Arm time from the world's registry so
	// the hot Perturber path avoids registry lookups.
	injections *obs.Counter
	injected   *obs.Gauge
}

// NewScenario returns an empty scenario.
func NewScenario() *Scenario { return &Scenario{} }

// Add appends an injector and returns the scenario for chaining.
func (s *Scenario) Add(in Injector) *Scenario {
	s.injectors = append(s.injectors, in)
	return s
}

// ComputeDelay implements pgas.Perturber by summing the injectors' delays.
func (s *Scenario) ComputeDelay(rank int, now, d float64) float64 {
	total := 0.0
	for _, in := range s.injectors {
		total += in.Delay(rank, now, d)
	}
	if total > 0 {
		s.injections.Inc()
		s.injected.Add(total)
	}
	return total
}

// Arm hooks the scenario into a world: the injectors become the world's
// perturber. A scenario with no injectors leaves the perturber unset so the
// run stays byte-identical to an unperturbed one.
func (s *Scenario) Arm(w *pgas.World) {
	if len(s.injectors) > 0 {
		reg := w.Obs()
		s.injections = reg.Counter("chaos.injections")
		s.injected = reg.Gauge("chaos.injected_seconds")
		w.SetPerturber(s)
	}
}
