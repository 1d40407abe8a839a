package waste

import (
	"runtime"
	"testing"

	"tenways/internal/machine"
)

func spec() *machine.Spec { return machine.Petascale2009() }

func TestAllModesWastefulLoses(t *testing.T) {
	// The paper's thesis in one test: on a 2009 petascale machine, every
	// one of the ten ways costs real time or energy, and its remedy wins.
	for _, m := range Modes() {
		m := m
		t.Run(m.ID, func(t *testing.T) {
			out, err := m.Run(spec())
			if err != nil {
				t.Fatal(err)
			}
			if out.Wasteful.Seconds <= 0 || out.Remedied.Seconds <= 0 {
				t.Fatalf("non-positive times: %+v", out)
			}
			if out.Wasteful.Joules <= 0 || out.Remedied.Joules <= 0 {
				t.Fatalf("non-positive energy: %+v", out)
			}
			// W10 trades no time, only energy; every other mode loses time.
			if m.ID != "W10" && out.TimeFactor() <= 1 {
				t.Errorf("%s: wasteful should be slower, factor %.3f", m.ID, out.TimeFactor())
			}
			if out.EnergyFactor() <= 1 {
				t.Errorf("%s: wasteful should burn more energy, factor %.3f", m.ID, out.EnergyFactor())
			}
		})
	}
}

func TestModesRegistry(t *testing.T) {
	ms := Modes()
	if len(ms) != 10 {
		t.Fatalf("expected 10 modes, got %d", len(ms))
	}
	for i, m := range ms {
		want := "W" + itoa(i+1)
		if m.ID != want {
			t.Errorf("mode %d ID = %q, want %q", i, m.ID, want)
		}
		if m.Name == "" || m.AbstractHook == "" || m.Wasteful == "" || m.Remedy == "" || m.Run == nil {
			t.Errorf("%s: incomplete descriptor", m.ID)
		}
	}
	if _, err := ByID("W7"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("W11"); err == nil {
		t.Fatal("expected error for W11")
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

func TestW1BlockSweepMonotoneTraffic(t *testing.T) {
	// Bigger working blocks than cache -> more traffic than small blocks.
	_, small, err := MatmulLocality(spec(), 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, large, err := MatmulLocality(spec(), 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if small >= large {
		t.Fatalf("block 8 traffic %d should be below naive %d", small, large)
	}
}

func TestW2BytesScaleWithWords(t *testing.T) {
	_, bSmall, err := HaloExchange(spec(), 4, 256, 5, 256)
	if err != nil {
		t.Fatal(err)
	}
	_, bBig, err := HaloExchange(spec(), 4, 256, 5, 2560)
	if err != nil {
		t.Fatal(err)
	}
	if bBig <= bSmall {
		t.Fatalf("more words should move more bytes: %d vs %d", bBig, bSmall)
	}
}

// TestHaloExchangeCarriesNoPayload: the halo is modelled by its size only,
// so a 1024-fold larger message allocates no more host memory. Copying a
// payload per message would cost 5 steps × 30 messages × 512 KiB here.
func TestHaloExchangeCarriesNoPayload(t *testing.T) {
	alloc := func(words int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := HaloExchange(spec(), 16, 1024, 5, words); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(64) // warm up lazily built state
	small, large := alloc(64), alloc(1<<16)
	const slack = 256 << 10
	if large > small+slack {
		t.Fatalf("HaloExchange allocated %d B at 64 words but %d B at 65536 words (slack %d B)", small, large, slack)
	}
}

func TestW3BarrierCostGrowsWithRanks(t *testing.T) {
	small, err := OversyncSweep(spec(), 8, 5, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	big, err := OversyncSweep(spec(), 64, 5, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if big.Seconds <= small.Seconds {
		t.Fatalf("global sync should cost more at scale: %g vs %g", big.Seconds, small.Seconds)
	}
}

func TestW4SkewKnob(t *testing.T) {
	flat, err := Imbalance(spec(), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := Imbalance(spec(), 8, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.TimeFactor() <= flat.TimeFactor() {
		t.Fatalf("higher skew should widen the static/dynamic gap: %g vs %g",
			skewed.TimeFactor(), flat.TimeFactor())
	}
	// With no skew, static is nearly optimal.
	if flat.TimeFactor() > 1.05 {
		t.Fatalf("uniform tasks should not benefit from stealing: %g", flat.TimeFactor())
	}
}

func TestW4DynamicNeverWorseThanStaticOnSkew(t *testing.T) {
	for _, s := range []float64{0.4, 0.8, 1.2, 1.6} {
		out, err := Imbalance(spec(), 16, s)
		if err != nil {
			t.Fatal(err)
		}
		if out.TimeFactor() < 0.999 {
			t.Fatalf("skew %g: dynamic slower than static (factor %g)", s, out.TimeFactor())
		}
	}
}

func TestW5LockScalesWithUpdatesNotCores(t *testing.T) {
	a := Serialization(spec(), 4, 1000, true)
	b := Serialization(spec(), 32, 1000, true)
	// Locked makespan is ~independent of core count.
	if b.Seconds < a.Seconds*0.99 {
		t.Fatalf("locked time should not improve with cores: %g vs %g", b.Seconds, a.Seconds)
	}
	sh4 := Serialization(spec(), 4, 1000, false)
	sh32 := Serialization(spec(), 32, 1000, false)
	if sh32.Seconds >= sh4.Seconds {
		t.Fatalf("sharded should scale: %g vs %g", sh32.Seconds, sh4.Seconds)
	}
}

func TestW6OverlapBounded(t *testing.T) {
	// Overlap can at best hide the smaller of comm and compute: the
	// remedied time must be at least max(comm, compute) per step.
	out, err := RunW6(spec())
	if err != nil {
		t.Fatal(err)
	}
	if out.TimeFactor() > 2.05 {
		t.Fatalf("overlap cannot beat 2x with comm==compute, got %g", out.TimeFactor())
	}
	if out.TimeFactor() < 1.2 {
		t.Fatalf("overlap should recover a sizeable fraction, got %g", out.TimeFactor())
	}
}

func TestW7CrossoverDirection(t *testing.T) {
	// Mid-size messages land between the extremes.
	one, err := BulkTransfer(spec(), 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := BulkTransfer(spec(), 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := BulkTransfer(spec(), 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !(bulk.Seconds < mid.Seconds && mid.Seconds < one.Seconds) {
		t.Fatalf("aggregation ordering violated: %g %g %g", one.Seconds, mid.Seconds, bulk.Seconds)
	}
}

func TestW8FactorsLargerOnExascale(t *testing.T) {
	// The mismatch penalty grows as machines get more flop-rich: the
	// keynote's warning about future machines.
	p2009, err := RunW8(machine.Petascale2009())
	if err != nil {
		t.Fatal(err)
	}
	exa, err := RunW8(machine.Exascale())
	if err != nil {
		t.Fatal(err)
	}
	if exa.TimeFactor() <= p2009.TimeFactor() {
		t.Fatalf("mismatch should hurt more at exascale: %g vs %g",
			exa.TimeFactor(), p2009.TimeFactor())
	}
}

func TestW9InvalidationsVanishWithPadding(t *testing.T) {
	_, inv, err := FalseSharing(spec(), 4, 500, []int{8, 128})
	if err != nil {
		t.Fatal(err)
	}
	if inv[0] == 0 {
		t.Fatal("packed counters should invalidate")
	}
	if inv[1] != 0 {
		t.Fatalf("padded counters should not invalidate, got %d", inv[1])
	}
}

func TestW10EnergyOnlyWaste(t *testing.T) {
	out, err := RunW10(spec())
	if err != nil {
		t.Fatal(err)
	}
	if out.TimeFactor() != 1 {
		t.Fatalf("W10 should not change wall time, factor %g", out.TimeFactor())
	}
	if out.EnergyFactor() < 3 {
		t.Fatalf("spin on non-proportional hardware should waste >3x energy, got %g", out.EnergyFactor())
	}
}

func TestW10DutyCycleShape(t *testing.T) {
	// The more idle the workload, the bigger the spin penalty.
	lowIdle := IdleEnergy(spec(), 9e-3, 1e-3, 10, true).Joules /
		IdleEnergy(spec(), 9e-3, 1e-3, 10, false).Joules
	highIdle := IdleEnergy(spec(), 1e-3, 9e-3, 10, true).Joules /
		IdleEnergy(spec(), 1e-3, 9e-3, 10, false).Joules
	if highIdle <= lowIdle {
		t.Fatalf("penalty should grow with idleness: %g vs %g", highIdle, lowIdle)
	}
}

func TestOutcomeFactors(t *testing.T) {
	o := Outcome{
		Wasteful: Result{Seconds: 10, Joules: 100},
		Remedied: Result{Seconds: 2, Joules: 20},
	}
	if o.TimeFactor() != 5 || o.EnergyFactor() != 5 {
		t.Fatalf("factors = %g, %g", o.TimeFactor(), o.EnergyFactor())
	}
}

func TestAllModesRunOnLaptop(t *testing.T) {
	// The demonstrators must be robust to a small machine (2 cores, UMA,
	// weak network), not just the default petascale node.
	laptop := machine.Laptop2009()
	for _, m := range Modes() {
		out, err := m.Run(laptop)
		if err != nil {
			t.Fatalf("%s on laptop: %v", m.ID, err)
		}
		if out.EnergyFactor() <= 1 {
			t.Errorf("%s on laptop: energy factor %.3f", m.ID, out.EnergyFactor())
		}
	}
}
