package chaos

import (
	"math"
	"strings"
	"testing"

	"tenways/internal/machine"
	"tenways/internal/trace"
)

func spec() *machine.Spec { return machine.Petascale2009() }

func TestJitterDeterministic(t *testing.T) {
	for _, dist := range []Dist{Uniform, Exponential, Bursty} {
		a := NewJitter(dist, 0.1, 42, 8)
		b := NewJitter(dist, 0.1, 42, 8)
		for i := 0; i < 200; i++ {
			rank := i % 8
			da := a.Delay(rank, float64(i), 0.01)
			db := b.Delay(rank, float64(i), 0.01)
			if da != db {
				t.Fatalf("%v: call %d diverged: %v vs %v", dist, i, da, db)
			}
			if da < 0 {
				t.Fatalf("%v: negative delay %v", dist, da)
			}
		}
	}
}

func TestJitterMeanRoughlyFrac(t *testing.T) {
	const frac, d, n = 0.1, 0.01, 20000
	for _, dist := range []Dist{Uniform, Exponential, Bursty} {
		j := NewJitter(dist, frac, 7, 1)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += j.Delay(0, 0, d)
		}
		mean := sum / n
		if mean < 0.5*frac*d || mean > 1.5*frac*d {
			t.Errorf("%v: mean delay %v, want ≈ %v", dist, mean, frac*d)
		}
	}
}

func TestStragglerWindow(t *testing.T) {
	s := &Straggler{Rank: 2, Factor: 3, From: 1, To: 2}
	if got := s.Delay(1, 1.5, 0.1); got != 0 {
		t.Errorf("wrong rank injected %v", got)
	}
	if got := s.Delay(2, 0.5, 0.1); got != 0 {
		t.Errorf("before window injected %v", got)
	}
	if got := s.Delay(2, 2.0, 0.1); got != 0 {
		t.Errorf("after window injected %v", got)
	}
	if got := s.Delay(2, 1.5, 0.1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("in window: got %v, want 0.2", got)
	}
	forever := NewStraggler(0, 2)
	if got := forever.Delay(0, 1e9, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("permanent straggler: got %v, want 1", got)
	}
}

func TestSpikeFiresOnce(t *testing.T) {
	s := NewSpike(3, 1.0, 0.5)
	if got := s.Delay(3, 0.5, 0.1); got != 0 {
		t.Errorf("fired before At: %v", got)
	}
	if got := s.Delay(3, 1.2, 0.1); got != 0.5 {
		t.Errorf("first firing: got %v, want 0.5", got)
	}
	if got := s.Delay(3, 2.0, 0.1); got != 0 {
		t.Errorf("fired twice: %v", got)
	}
}

// TestScenarioRunDeterministic runs the same seeded chaos campaign twice and
// requires bit-identical makespans and breakdowns.
func TestScenarioRunDeterministic(t *testing.T) {
	run := func() (float64, trace.Breakdown) {
		sc := NewScenario().Add(NewJitter(Exponential, 0.2, 99, 8))
		res, err := RunIdleWave(spec(), IdleWaveConfig{
			Ranks: 8, Steps: 20, Compute: 1e-3, Words: 8,
			Stack: NeighborBlocking, Chaos: sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan, res.Breakdown
	}
	m1, b1 := run()
	m2, b2 := run()
	if m1 != m2 {
		t.Fatalf("makespans differ: %v vs %v", m1, m2)
	}
	for _, c := range trace.Categories() {
		if b1.Of(c) != b2.Of(c) {
			t.Fatalf("%v differs: %v vs %v", c, b1.Of(c), b2.Of(c))
		}
	}
}

// TestEmptyScenarioIsQuiet checks chaos is strictly opt-in: arming an empty
// scenario leaves a run bit-identical to one with no scenario at all.
func TestEmptyScenarioIsQuiet(t *testing.T) {
	cfg := IdleWaveConfig{Ranks: 4, Steps: 10, Compute: 1e-3, Words: 4, Stack: NeighborBlocking}
	plain, err := RunIdleWave(spec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = NewScenario()
	armed, err := RunIdleWave(spec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != armed.Makespan {
		t.Fatalf("empty scenario changed makespan: %v vs %v", plain.Makespan, armed.Makespan)
	}
	if armed.Breakdown.Of(trace.Noise) != 0 {
		t.Fatalf("empty scenario charged noise: %v", armed.Breakdown.Of(trace.Noise))
	}
}

// TestIdleWavePropagatesAtFiniteSpeed injects one spike at rank 0 of a
// blocking halo chain and checks the wavefront's arrival times: never
// earlier at rank r than at rank r−1, strictly later at the far end than
// at the near end (one neighbour offset per step), at full amplitude.
func TestIdleWavePropagatesAtFiniteSpeed(t *testing.T) {
	const p, steps, compute, dur = 12, 24, 1e-3, 3e-3
	sc := NewScenario().Add(NewSpike(0, 0, dur))
	_, quiet, delta, err := IdleWaveDelta(spec(), IdleWaveConfig{
		Ranks: p, Steps: steps, Compute: compute, Words: 4, Stack: NeighborBlocking,
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	arrive := ArrivalTimes(quiet, delta, compute/10)
	for r := 1; r < p; r++ {
		if arrive[r] < 0 {
			t.Fatalf("wave never reached rank %d: %v", r, arrive)
		}
		if arrive[r] < arrive[r-1] {
			t.Fatalf("wavefront not monotone: %v", arrive)
		}
	}
	// Finite speed: the far end must be hit strictly later than the near end.
	if arrive[p-1] <= arrive[1] {
		t.Fatalf("wave arrived instantaneously: %v", arrive)
	}
	// Undamped: the full spike survives to the last rank's last step.
	res := ResidualDelay(delta)
	if res[p-1] < 0.9*dur {
		t.Fatalf("blocking chain damped the wave: residual %v, want ≈ %v", res[p-1], dur)
	}
}

// TestIdleWaveDecaysUnderSlack checks the remedies: the async neighbour
// stack damps the wave hop by hop, and the non-blocking barrier absorbs
// part of the spike, while blocking barriers relay it globally at full
// amplitude. The spike hits the last rank — a leaf of the binomial tree,
// where the split-phase barrier's compute/barrier overlap operates.
func TestIdleWaveDecaysUnderSlack(t *testing.T) {
	const p, steps, compute, dur = 8, 32, 1e-3, 2.5e-3
	victim := p - 1
	residual := func(stack Stack) []float64 {
		sc := NewScenario().Add(NewSpike(victim, 0, dur))
		_, _, delta, err := IdleWaveDelta(spec(), IdleWaveConfig{
			Ranks: p, Steps: steps, Compute: compute, Words: 4, Stack: stack,
		}, sc)
		if err != nil {
			t.Fatal(err)
		}
		return ResidualDelay(delta)
	}
	async := residual(NeighborAsync)
	// One compute-time of slack per hop: by ⌈dur/compute⌉+1 hops from the
	// victim the wave is fully absorbed.
	if async[0] > compute/10 {
		t.Errorf("async chain did not absorb the wave: residual %v", async[0])
	}
	flat := residual(FlatBarrier)
	nb := residual(NonBlockingBarrier)
	for r := 0; r < p; r++ {
		if flat[r] < 0.9*dur {
			t.Errorf("flat barrier damped the wave at rank %d: %v", r, flat[r])
		}
		if r == victim {
			continue // the victim itself keeps its delay under any stack
		}
		// The split-phase barrier overlaps one step's compute with the
		// leaf victim's delay, shaving that much off what everyone else
		// inherits.
		if nb[r] > flat[r]-0.9*compute {
			t.Errorf("non-blocking barrier absorbed nothing at rank %d: %v vs flat %v", r, nb[r], flat[r])
		}
	}
}

func TestStragglerCampaignRebalances(t *testing.T) {
	const p, tasks, tsec, factor = 8, 128, 1e-3, 8.0
	run := func(dynamic bool) StragglerResult {
		sc := NewScenario().Add(NewStraggler(p-1, factor))
		res, err := RunStragglerCampaign(spec(), StragglerConfig{
			Ranks: p, Tasks: tasks, TaskSec: tsec, Dynamic: dynamic, Chaos: sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(false)
	dyn := run(true)
	// Static inherits the straggler's full slowdown; self-scheduling routes
	// work around it.
	if dyn.Makespan >= static.Makespan/2 {
		t.Fatalf("rebalance did not help: dynamic %v vs static %v", dyn.Makespan, static.Makespan)
	}
	if static.Makespan < 0.9*factor*float64(tasks)/p*tsec {
		t.Fatalf("static makespan %v did not inherit the slowdown", static.Makespan)
	}
	// The straggler completed fewer tasks than healthy workers under
	// self-scheduling.
	healthyMin := dyn.TasksDone[1]
	for r := 2; r < p-1; r++ {
		if dyn.TasksDone[r] < healthyMin {
			healthyMin = dyn.TasksDone[r]
		}
	}
	if dyn.TasksDone[p-1] >= healthyMin {
		t.Errorf("straggler got as much work as healthy ranks: %v", dyn.TasksDone)
	}
	total := 0
	for _, n := range dyn.TasksDone {
		total += n
	}
	if total != tasks {
		t.Fatalf("dynamic run completed %d of %d tasks", total, tasks)
	}
	// Injected stall is attributed to Noise.
	if dyn.Breakdown.Of(trace.Noise) <= 0 {
		t.Errorf("no noise attributed: %v", dyn.Breakdown)
	}
}

func TestCheckpointReplayTradeoff(t *testing.T) {
	const p, steps, stepSec = 4, 32, 1e-3
	run := func(interval, failStep int) CheckpointResult {
		res, err := RunCheckpointCampaign(spec(), CheckpointConfig{
			Ranks: p, Steps: steps, StepSec: stepSec,
			Interval: interval, CkptSec: 0.3 * stepSec,
			FailStep: failStep, FailRank: 1, RestartSec: 2 * stepSec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(0, -1)
	if clean.Checkpoints != 0 || clean.ReplaySteps != 0 {
		t.Fatalf("clean run checkpointed/replayed: %+v", clean)
	}
	// Failure without checkpointing replays the whole prefix.
	bare := run(0, 23)
	if bare.ReplaySteps != 24 {
		t.Fatalf("uncheckpointed replay = %d, want 24", bare.ReplaySteps)
	}
	// Checkpointing every 8 steps bounds replay to the interval.
	ck := run(8, 23)
	if ck.ReplaySteps != 8 {
		t.Fatalf("checkpointed replay = %d, want 8", ck.ReplaySteps)
	}
	if ck.Checkpoints == 0 {
		t.Fatal("no checkpoints committed")
	}
	if ck.Makespan >= bare.Makespan {
		t.Fatalf("checkpointing did not pay off: %v vs %v", ck.Makespan, bare.Makespan)
	}
	if clean.Makespan >= bare.Makespan {
		t.Fatalf("failure was free: clean %v vs failed %v", clean.Makespan, bare.Makespan)
	}
	// Every-step checkpointing minimises replay but pays constant overhead.
	eager := run(1, 23)
	if eager.ReplaySteps != 1 {
		t.Fatalf("eager replay = %d, want 1", eager.ReplaySteps)
	}
	if eager.Makespan <= ck.Makespan {
		t.Fatalf("checkpoint overhead vanished: eager %v vs every-8 %v", eager.Makespan, ck.Makespan)
	}
}

func TestDistAndStackNames(t *testing.T) {
	for _, d := range []Dist{Uniform, Exponential, Bursty} {
		if name := d.String(); name == "" || strings.HasPrefix(name, "dist(") {
			t.Errorf("unnamed dist %d: %q", d, name)
		}
	}
	stacks := []Stack{NeighborBlocking, NeighborAsync, FlatBarrier, TreeBarrier, NonBlockingBarrier}
	seen := map[string]bool{}
	for _, s := range stacks {
		name := s.String()
		if seen[name] {
			t.Errorf("duplicate stack name %q", name)
		}
		seen[name] = true
	}
}
