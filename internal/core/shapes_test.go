package core

// Shape tests: every qualitative claim EXPERIMENTS.md makes about a table
// or figure — who wins, what grows, where crossovers fall — is asserted
// here against the full-size (non-Quick) experiment outputs, so the
// documentation cannot drift from the code. These run the complete suite
// and are skipped in -short mode.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"tenways/internal/obs"
)

func fmtSscan(s string, f *float64) (int, error) { return fmt.Sscan(s, f) }

func fullFigure(t *testing.T, id string) (*Lab, map[string][]float64, []float64) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-size experiment")
	}
	lab := NewLab()
	out, err := lab.Run(id, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Figure == nil {
		t.Fatalf("%s: no figure", id)
	}
	series := map[string][]float64{}
	for _, s := range out.Figure.Series {
		series[s.Name] = s.Ys
	}
	return lab, series, out.Figure.Xs
}

func monotoneNonIncreasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[i-1]*(1+1e-9) {
			return false
		}
	}
	return true
}

func TestShapeF7AggregationMonotone(t *testing.T) {
	_, s, _ := fullFigure(t, "F7")
	secs := s["modeled-seconds"]
	if !monotoneNonIncreasing(secs) {
		t.Fatalf("F7 seconds not monotone: %v", secs)
	}
	// One-word messages must be at least 100x slower than bulk.
	if secs[0] < 100*secs[len(secs)-1] {
		t.Fatalf("aggregation win too small: %g vs %g", secs[0], secs[len(secs)-1])
	}
}

func TestShapeF14RecursiveDoublingWinsAtScale(t *testing.T) {
	_, s, xs := fullFigure(t, "F14")
	last := len(xs) - 1
	rd := s["recursive-doubling"][last]
	if flat := s["flat"][last]; rd >= flat {
		t.Fatalf("P=%g: rd (%g) should beat flat (%g)", xs[last], rd, flat)
	}
	if ring := s["ring"][last]; rd >= ring {
		t.Fatalf("P=%g: rd (%g) should beat ring (%g) at this message size", xs[last], rd, ring)
	}
}

func TestShapeF13InverseSqrtC(t *testing.T) {
	_, s, xs := fullFigure(t, "F13")
	words := s["words-per-proc"]
	for i, c := range xs {
		want := words[0] / math.Sqrt(c)
		if math.Abs(words[i]-want) > 1e-6*want {
			t.Fatalf("c=%g: words %g, want %g (∝1/sqrt(c))", c, words[i], want)
		}
	}
	// Memory grows linearly in c.
	mem := s["memory-GiB"]
	if math.Abs(mem[len(mem)-1]/mem[0]-xs[len(xs)-1]/xs[0]) > 1e-6 {
		t.Fatal("memory not ∝ c")
	}
}

func TestShapeF16GustafsonDominates(t *testing.T) {
	_, s, _ := fullFigure(t, "F16")
	for name, ys := range s {
		if !strings.HasPrefix(name, "gustafson") {
			continue
		}
		am := s["amdahl"+strings.TrimPrefix(name, "gustafson")]
		for i := range ys {
			if ys[i] < am[i]-1e-9 {
				t.Fatalf("%s below its Amdahl curve at index %d", name, i)
			}
		}
	}
}

func TestShapeF15ChainAndFanout(t *testing.T) {
	_, s, xs := fullFigure(t, "F15")
	for name, ys := range s {
		if strings.HasPrefix(name, "chain") {
			for i, y := range ys {
				if math.Abs(y-1) > 1e-9 {
					t.Fatalf("chain speedup at P=%g is %g, want 1", xs[i], y)
				}
			}
		}
		if strings.HasPrefix(name, "fan-out") {
			if last := ys[len(ys)-1]; last < 40 {
				t.Fatalf("fan-out speedup at P=%g only %g", xs[len(xs)-1], last)
			}
		}
	}
}

func TestShapeF10IdleEnergy(t *testing.T) {
	_, s, xs := fullFigure(t, "F10")
	spin := s["spin"]
	block := s["block"]
	prop := s["block-proportional"]
	for i := range xs {
		if spin[i] < block[i]-1e-9 || block[i] < prop[i]-1e-9 {
			t.Fatalf("idle=%g: ordering violated: spin=%g block=%g prop=%g",
				xs[i], spin[i], block[i], prop[i])
		}
	}
	// Spin is flat (always full power); proportional falls with idleness.
	if math.Abs(spin[0]-spin[len(spin)-1]) > 1e-9 {
		t.Fatal("spin energy should not depend on idle fraction")
	}
	if prop[len(prop)-1] >= prop[0] {
		t.Fatal("proportional energy should fall with idleness")
	}
}

func TestShapeF11StrongScaling(t *testing.T) {
	_, s, xs := fullFigure(t, "F11")
	rem := s["remedied-stack"]
	ideal := s["ideal"]
	waste := s["wasteful-stack"]
	for i := range xs {
		p := xs[i]
		if p <= 64 && rem[i] > 2*ideal[i] {
			t.Fatalf("P=%g: remedied %g more than 2x off ideal %g", p, rem[i], ideal[i])
		}
		if p >= 16 && waste[i] < 3*rem[i] {
			t.Fatalf("P=%g: wasteful (%g) should be >=3x remedied (%g)", p, waste[i], rem[i])
		}
	}
}

func TestShapeF3SyncCost(t *testing.T) {
	_, s, xs := fullFigure(t, "F3")
	global := s["global-barrier"]
	nb := s["neighbour-sync"]
	// Global grows with P; neighbour is ~flat after P=8.
	if global[len(global)-1] <= global[0] {
		t.Fatal("global barrier cost should grow with ranks")
	}
	growth := nb[len(nb)-1] / nb[1]
	if growth > 1.5 {
		t.Fatalf("neighbour sync should be ~flat, grew %gx", growth)
	}
	for i := range xs {
		if xs[i] >= 16 && global[i] <= nb[i] {
			t.Fatalf("P=%g: global (%g) should exceed neighbour (%g)", xs[i], global[i], nb[i])
		}
	}
}

func TestShapeF5Serialization(t *testing.T) {
	_, s, xs := fullFigure(t, "F5")
	locked := s["global-lock"]
	sharded := s["sharded"]
	// Locked throughput is flat in cores; sharded scales ~linearly.
	if math.Abs(locked[len(locked)-1]/locked[0]-1) > 0.01 {
		t.Fatal("locked throughput should not scale")
	}
	gain := sharded[len(sharded)-1] / sharded[0]
	wantGain := xs[len(xs)-1] / xs[0]
	if gain < 0.8*wantGain {
		t.Fatalf("sharded should scale ~linearly: gained %gx over %gx cores", gain, wantGain)
	}
}

func TestShapeF2LinearInResendFactor(t *testing.T) {
	_, s, xs := fullFigure(t, "F2")
	wire := s["wire-MiB"]
	for i := range xs {
		want := wire[0] * xs[i] / xs[0]
		if math.Abs(wire[i]-want) > 0.02*want {
			t.Fatalf("factor %g: wire %g, want ~%g (linear)", xs[i], wire[i], want)
		}
	}
}

func TestShapeF17PrefetchEnergyNotSaved(t *testing.T) {
	_, s, xs := fullFigure(t, "F17")
	tOff := s["seconds-no-prefetch"]
	tOn := s["seconds-prefetch"]
	eOff := s["joules-no-prefetch"]
	eOn := s["joules-prefetch"]
	// Sequential (stride 8): prefetch must cut time substantially.
	if tOn[0] > 0.5*tOff[0] {
		t.Fatalf("prefetch too weak on sequential scan: %g vs %g", tOn[0], tOff[0])
	}
	for i := range xs {
		if eOn[i] < eOff[i]-1e-12 {
			t.Fatalf("stride %g: prefetch cannot reduce energy (%g < %g)", xs[i], eOn[i], eOff[i])
		}
	}
	// Large strides defeat a next-line prefetcher and waste fetches.
	last := len(xs) - 1
	if eOn[last] < 1.5*eOff[last] {
		t.Fatalf("defeated prefetcher should waste energy: %g vs %g", eOn[last], eOff[last])
	}
}

func TestShapeF19SStepWinsAtScale(t *testing.T) {
	_, s, xs := fullFigure(t, "F19")
	std := s["standard-cg"]
	ca := s["s-step-cg-s4"]
	last := len(xs) - 1
	if ca[last] >= std[last] {
		t.Fatalf("P=%g: s-step (%g) should beat standard (%g)", xs[last], ca[last], std[last])
	}
}

func TestShapeT5ImprovementEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size experiment")
	}
	out, err := NewLab().Run("T5", Config{})
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	for _, row := range out.Table.Rows {
		if row[1] != "remedied" {
			continue
		}
		cell := strings.TrimSuffix(row[6], "x")
		var f float64
		if _, err := fmtSscan(cell, &f); err != nil {
			t.Fatalf("bad improvement cell %q", row[6])
		}
		if f < 2 {
			t.Fatalf("%s: steps/J improvement only %gx", row[0], f)
		}
		improved++
	}
	if improved != 4 {
		t.Fatalf("expected 4 remedied rows, got %d", improved)
	}
}

func TestShapeF22WaveFiniteSpeed(t *testing.T) {
	_, s, xs := fullFigure(t, "F22")
	p := len(xs)
	// The wave reaches every rank, monotonically later with distance, and a
	// longer neighbour offset makes it arrive sooner at the far end.
	short := s["logGP d={1}"]
	long := s["logGP d={1,4}"]
	for r := 1; r < p; r++ {
		if short[r] < 0 || long[r] < 0 {
			t.Fatalf("wave never arrived at rank %d: %v / %v", r, short[r], long[r])
		}
		if short[r] < short[r-1] {
			t.Fatalf("d={1} wavefront not monotone at rank %d: %v", r, short)
		}
	}
	if long[p-1] >= short[p-1] {
		t.Fatalf("longer offsets should accelerate the wave: d={1,4} %gms vs d={1} %gms",
			long[p-1], short[p-1])
	}
}

func TestShapeF23NoiseAbsorbingStacksDamp(t *testing.T) {
	_, s, xs := fullFigure(t, "F23")
	p := len(xs)
	victim := p - 1
	flat := s["flat-barrier"]
	tree := s["tree-barrier"]
	async := s["neighbor-async"]
	nb := s["nonblocking-barrier"]
	blocking := s["neighbor-blocking"]
	// Blocking stacks relay the full spike to rank 0; the async chain damps
	// it to nothing; the split-phase barrier keeps everyone but the victim
	// below the blocking-barrier amplitude.
	if async[0] > flat[0]/10 {
		t.Fatalf("async chain did not damp the wave: %g vs flat %g", async[0], flat[0])
	}
	if blocking[0] < 0.9*flat[0] || tree[0] < 0.9*flat[0] {
		t.Fatalf("blocking stacks should relay full amplitude: chain %g, tree %g, flat %g",
			blocking[0], tree[0], flat[0])
	}
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		if nb[r] >= flat[r] {
			t.Fatalf("non-blocking barrier absorbed nothing at rank %d: %g vs %g", r, nb[r], flat[r])
		}
	}
}

func TestShapeF24SelfSchedulingBeatsStatic(t *testing.T) {
	_, s, xs := fullFigure(t, "F24")
	static := s["static partition"]
	dyn := s["self-scheduling (over-decomposed)"]
	last := len(xs) - 1
	// Static efficiency collapses as 1/factor; self-scheduling stays high.
	if static[last] > 0.2 {
		t.Fatalf("static efficiency should collapse under a %gx straggler: %g", xs[last], static[last])
	}
	if dyn[last] < 3*static[last] {
		t.Fatalf("self-scheduling should far outperform static: %g vs %g", dyn[last], static[last])
	}
	if !monotoneNonIncreasing(static) {
		t.Fatalf("static efficiency not monotone in slowdown: %v", static)
	}
}

func TestShapeF25CheckpointUCurve(t *testing.T) {
	_, s, xs := fullFigure(t, "F25")
	fail := s["with failure"]
	clean := s["failure-free (overhead only)"]
	bare := s["no checkpoints + failure"]
	// Overhead-only time falls as checkpoints get rarer.
	if !monotoneNonIncreasing(clean) {
		t.Fatalf("failure-free overhead not monotone: %v", clean)
	}
	// The failure curve is a U: its interior minimum beats both endpoints.
	best, bestI := math.Inf(1), -1
	for i, y := range fail {
		if y < best {
			best, bestI = y, i
		}
	}
	if bestI == 0 || bestI == len(fail)-1 {
		t.Fatalf("no interior optimum: %v (min at %g)", fail, xs[bestI])
	}
	// Any checkpointed run with failure beats replaying the whole campaign.
	for i, y := range fail {
		if y >= bare[i] {
			t.Fatalf("checkpointing at interval %g did not beat no checkpoints: %g vs %g",
				xs[i], y, bare[i])
		}
	}
}

func TestShapeT9TunedBeatsDefaultEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size experiment")
	}
	out, err := NewLab().Run("T9", Config{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := out.Table
	// Columns: tunable, machine, default, tuned, default cost, tuned cost,
	// oracle cost, evals, saving. The tuner must match or beat the
	// hand-picked default on every (tunable, preset) pair.
	if len(tbl.Rows) < 12 {
		t.Fatalf("T9 rows = %d, want >= 12 (tunables x presets)", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		var saving float64
		if _, err := fmtSscan(strings.TrimSuffix(row[8], "%"), &saving); err != nil {
			t.Fatalf("bad saving cell %q: %v", row[8], err)
		}
		if saving < -0.05 {
			t.Errorf("%s on %s: tuned loses to default (saving %g%%)", row[0], row[1], saving)
		}
	}
}

func TestShapeF26GoldenConvergesFast(t *testing.T) {
	_, s, xs := fullFigure(t, "F26")
	var grid, golden []float64
	goldenEvals := 0
	for name, ys := range s {
		switch {
		case strings.HasPrefix(name, "grid"):
			grid = ys
		case strings.HasPrefix(name, "golden"):
			golden = ys
			if _, err := fmt.Sscanf(name, "golden (%d evals)", &goldenEvals); err != nil {
				t.Fatalf("bad golden series name %q: %v", name, err)
			}
		}
	}
	if grid == nil || golden == nil {
		t.Fatalf("missing series: have %d", len(s))
	}
	if goldenEvals > 15 {
		t.Errorf("golden-section used %d evaluations, want <= 15", goldenEvals)
	}
	if len(xs) < 30 {
		t.Errorf("grid sweep only %d evaluations; the checkpoint axis should need a full sweep", len(xs))
	}
	last := len(xs) - 1
	if golden[last] > 1.10*grid[last] {
		t.Errorf("golden final %g > 1.10 x grid floor %g", golden[last], grid[last])
	}
	for name, ys := range s {
		if !monotoneNonIncreasing(ys) {
			t.Errorf("%s best-so-far curve not monotone: %v", name, ys)
		}
	}
}

func TestShapeT8BlockingAmplifiesNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size experiment")
	}
	out, err := NewLab().Run("T8", Config{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := out.Table
	// Columns: injector, nb-time, nb-ampl, flat-time, flat-ampl, split-time,
	// split-ampl. For every injector row, the flat barrier's amplification
	// must exceed the neighbour chain's: global synchronisation spreads each
	// rank's noise to all ranks.
	col := map[string]int{}
	for i, h := range tbl.Headers {
		col[h] = i
	}
	parse := func(cell string) float64 {
		var f float64
		if _, err := fmtSscan(strings.TrimSuffix(cell, "x"), &f); err != nil {
			t.Fatalf("bad factor cell %q: %v", cell, err)
		}
		return f
	}
	rows := 0
	for _, row := range tbl.Rows {
		if row[0] == "none" || strings.HasPrefix(row[0], "straggler") {
			continue
		}
		rows++
		nbAmpl := parse(row[2])
		flatAmpl := parse(row[4])
		if flatAmpl <= nbAmpl {
			t.Errorf("%s: flat barrier should amplify more than the neighbour chain: %g vs %g",
				row[0], flatAmpl, nbAmpl)
		}
		if flatAmpl < 1 {
			t.Errorf("%s: flat-barrier amplification below 1: %g", row[0], flatAmpl)
		}
	}
	if rows == 0 {
		t.Fatal("no jitter rows found in T8")
	}
}

// TestShapeT10WorkAttribution asserts the claims EXPERIMENTS.md makes about
// the lab self-profile: the collective sweep dominates wire traffic, only
// the analytic experiments process no engine events, only the chaos
// experiments inject noise, and only the tuner experiment evaluates.
// Quick mode suffices — the attribution pattern is scale-independent.
func TestShapeT10WorkAttribution(t *testing.T) {
	results, err := NewLab().RunAll(context.Background(), Config{Quick: true},
		RunOptions{Workers: 2, IDs: profileIDs})
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]obs.Snapshot{}
	for _, r := range results {
		m[r.ID] = r.Metrics
	}
	for _, id := range profileIDs {
		if id == "T3" {
			continue
		}
		if m["T3"].Counter("pgas.bytes_sent") < 10*m[id].Counter("pgas.bytes_sent") {
			t.Errorf("T3 should dominate wire bytes: T3=%d, %s=%d",
				m["T3"].Counter("pgas.bytes_sent"), id, m[id].Counter("pgas.bytes_sent"))
		}
	}
	for _, id := range profileIDs {
		n := m[id].Counter("pdes.events")
		if analytic := id == "F3" || id == "F26"; analytic != (n == 0) {
			t.Errorf("%s: pdes.events = %d", id, n)
		}
	}
	for _, id := range profileIDs {
		inj := m[id].Counter("chaos.injections")
		if chaotic := id == "F23" || id == "F24"; chaotic != (inj > 0) {
			t.Errorf("%s: chaos.injections = %d", id, inj)
		}
		evals := m[id].Counter("tune.evaluations")
		if (id == "F26") != (evals > 0) {
			t.Errorf("%s: tune.evaluations = %d", id, evals)
		}
	}
}
