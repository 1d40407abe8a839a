package tune

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"tenways/internal/cache"
	"tenways/internal/machine"
)

func TestSpaceEnumeration(t *testing.T) {
	s := NewSpace(IntRange("a", 1, 3, 1), Choice("b", "x", "y"))
	if s.Size() != 6 {
		t.Fatalf("Size = %d, want 6", s.Size())
	}
	pts := s.Points()
	if len(pts) != 6 {
		t.Fatalf("Points len = %d, want 6", len(pts))
	}
	// Lexicographic: first axis slowest.
	if s.Int(pts[0], "a") != 1 || s.Str(pts[0], "b") != "x" {
		t.Fatalf("first point = %s", s.Describe(pts[0]))
	}
	if s.Int(pts[5], "a") != 3 || s.Str(pts[5], "b") != "y" {
		t.Fatalf("last point = %s", s.Describe(pts[5]))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		if seen[p.Key()] {
			t.Fatalf("duplicate point %s", p.Key())
		}
		seen[p.Key()] = true
		if err := s.Check(p); err != nil {
			t.Fatalf("Check(%s): %v", p.Key(), err)
		}
	}
}

func TestLogRangeIncludesEndpoints(t *testing.T) {
	a := LogRange("w", 1, 48, 4)
	want := []int{1, 4, 16, 48}
	var got []int
	for i := 0; i < a.Len(); i++ {
		got = append(got, a.IntAt(i))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LogRange values = %v, want %v", got, want)
	}
}

func TestNeighbors(t *testing.T) {
	s := NewSpace(IntRange("a", 0, 4, 1), IntRange("b", 0, 4, 1))
	n := s.Neighbors(Point{2, 2})
	if len(n) != 4 {
		t.Fatalf("interior neighbors = %d, want 4", len(n))
	}
	n = s.Neighbors(Point{0, 0})
	if len(n) != 2 {
		t.Fatalf("corner neighbors = %d, want 2", len(n))
	}
}

// quadratic returns a unimodal objective with its minimum at index opt,
// counting true evaluations.
func quadratic(opt int, evals *int64) Objective {
	return func(p Point) (Cost, error) {
		atomic.AddInt64(evals, 1)
		d := float64(p[0] - opt)
		return Cost{Seconds: 1 + d*d}, nil
	}
}

func TestGridFindsOptimum(t *testing.T) {
	s := NewSpace(IntRange("k", 0, 47, 1))
	var evals int64
	res, err := Minimize(s, quadratic(31, &evals), Options{Strategy: Grid{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Point[0] != 31 {
		t.Fatalf("grid best = %s, want k=31", s.Describe(res.Best.Point))
	}
	if res.Evaluations != 48 || evals != 48 {
		t.Fatalf("grid evals = %d (true %d), want 48", res.Evaluations, evals)
	}
}

func TestGoldenSectionConvergesFast(t *testing.T) {
	// Acceptance criterion: golden-section finds the optimum of a unimodal
	// 48-point axis in at most 15 evaluations, where grid needs all 48.
	for _, opt := range []int{0, 7, 23, 31, 47} {
		s := NewSpace(IntRange("k", 0, 47, 1))
		var evals int64
		res, err := Minimize(s, quadratic(opt, &evals), Options{Strategy: GoldenSection{}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Point[0] != opt {
			t.Errorf("opt=%d: golden best = %s", opt, s.Describe(res.Best.Point))
		}
		if evals > 15 {
			t.Errorf("opt=%d: golden used %d evals, want <= 15", opt, evals)
		}
	}
}

func TestGoldenSectionMatchesGridOnTunables(t *testing.T) {
	// On every registered unimodal tunable and machine preset, golden-section
	// must land within 10% of the grid oracle's cost.
	for _, tn := range Tunables(true) {
		if !tn.Unimodal {
			continue
		}
		for _, m := range machine.Presets() {
			oracle, err := tn.Tune(m, Options{Strategy: Grid{}})
			if err != nil {
				t.Fatalf("%s/%s grid: %v", tn.ID, m.Name, err)
			}
			golden, err := tn.Tune(m, Options{Strategy: GoldenSection{}})
			if err != nil {
				t.Fatalf("%s/%s golden: %v", tn.ID, m.Name, err)
			}
			if golden.Best.Cost.Seconds > 1.10*oracle.Best.Cost.Seconds {
				t.Errorf("%s on %s: golden %.3g > 1.10 x oracle %.3g (golden %s, oracle %s)",
					tn.ID, m.Name, golden.Best.Cost.Seconds, oracle.Best.Cost.Seconds,
					tn.Space.Describe(golden.Best.Point), tn.Space.Describe(oracle.Best.Point))
			}
		}
	}
}

func TestTunedNeverLosesToDefault(t *testing.T) {
	for _, tn := range Tunables(true) {
		for _, m := range machine.Presets() {
			res, err := tn.Tune(m, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", tn.ID, m.Name, err)
			}
			def, err := tn.Objective(m)(tn.Default)
			if err != nil {
				t.Fatalf("%s/%s default: %v", tn.ID, m.Name, err)
			}
			if res.Best.Cost.Seconds > def.Seconds*(1+1e-12) {
				t.Errorf("%s on %s: tuned %.6g worse than default %.6g",
					tn.ID, m.Name, res.Best.Cost.Seconds, def.Seconds)
			}
		}
	}
}

// TestTuneVsDefault: the comparison prices the default with the
// tunable's objective, runs the same search as Tune, and reports the
// saving against the default.
func TestTuneVsDefault(t *testing.T) {
	m := machine.Petascale2009()
	for _, tn := range Tunables(true) {
		res, def, saving, err := tn.TuneVsDefault(m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tn.ID, err)
		}
		want, err := tn.Tune(m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tn.ID, err)
		}
		wantDef, err := tn.Objective(m)(tn.Default)
		if err != nil {
			t.Fatalf("%s default: %v", tn.ID, err)
		}
		if res.Describe() != want.Describe() || res.Best.Cost != want.Best.Cost || def != wantDef {
			t.Errorf("%s: got %s at %v, default %v; want %s at %v, default %v",
				tn.ID, res.Describe(), res.Best.Cost, def, want.Describe(), want.Best.Cost, wantDef)
		}
		if def.Seconds > 0 && saving != 1-res.Best.Cost.Seconds/def.Seconds {
			t.Errorf("%s: saving %g, want 1 - %g/%g", tn.ID, saving, res.Best.Cost.Seconds, def.Seconds)
		}
	}
}

// TestTuneVsDefaultPricesDefaultOnce: the default's cost comes from the
// search's own evaluation of the seeded default, so the objective runs
// exactly Evaluations times — not once more outside the search.
func TestTuneVsDefaultPricesDefaultOnce(t *testing.T) {
	axis := IntRange("k", 0, 15, 1)
	var calls int64
	tn := Tunable{
		ID:       "X-k",
		Space:    NewSpace(axis),
		Default:  Point{indexOf(axis, 12)},
		Unimodal: true,
		objective: func(*machine.Spec) Objective {
			return quadratic(5, &calls)
		},
	}
	res, def, _, err := tn.TuneVsDefault(machine.Petascale2009(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if calls != int64(res.Evaluations) {
		t.Fatalf("objective ran %d times, Evaluations = %d", calls, res.Evaluations)
	}
	if want := (Cost{Seconds: 1 + 7*7}); def != want {
		t.Fatalf("default cost %+v, want %+v", def, want)
	}
}

func TestCacheMakesRepeatTuningFree(t *testing.T) {
	// Acceptance criterion: repeated tune of the same (machine, tunable)
	// through a shared cache costs zero extra evaluations.
	s := NewSpace(IntRange("k", 0, 47, 1))
	var evals int64
	cache := NewCache()
	obj := quadratic(13, &evals)
	opts := Options{Strategy: GoldenSection{}, Cache: cache, CacheKey: "m|t"}
	first, err := Minimize(s, obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := evals
	second, err := Minimize(s, obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	if evals != before {
		t.Fatalf("repeat tuning cost %d extra evaluations, want 0", evals-before)
	}
	if second.Evaluations != 0 {
		t.Fatalf("repeat Result.Evaluations = %d, want 0", second.Evaluations)
	}
	if second.CacheHits == 0 {
		t.Fatalf("repeat CacheHits = 0, want > 0")
	}
	if !reflect.DeepEqual(first.Best.Point, second.Best.Point) {
		t.Fatalf("repeat best %v != first best %v", second.Best.Point, first.Best.Point)
	}
}

func TestInBatchDedup(t *testing.T) {
	s := NewSpace(IntRange("k", 0, 9, 1))
	var evals int64
	res, err := Minimize(s, quadratic(4, &evals), Options{
		Strategy: stubStrategy{func(r *Run) error {
			_, err := r.Eval([]Point{{3}, {3}, {3}, {5}})
			return err
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if evals != 2 {
		t.Fatalf("true evals = %d, want 2 (duplicates deduped)", evals)
	}
	if res.Evaluations != 2 || res.CacheHits != 2 {
		t.Fatalf("Evaluations=%d CacheHits=%d, want 2 and 2", res.Evaluations, res.CacheHits)
	}
}

// TestInBatchDuplicateSurvivesEviction: a duplicate in a batch takes its
// leader's cost even when a later Put of the same batch has evicted the
// leader's cache entry. Reading the follower back from a 2-entry cache
// gave it Cost{}, and that zero cost won the search.
func TestInBatchDuplicateSurvivesEviction(t *testing.T) {
	s := NewSpace(IntRange("k", 0, 9, 1))
	var evals int64
	obj := quadratic(4, &evals)
	res, err := Minimize(s, obj, Options{
		Cache: cache.New[Cost](2, 1),
		Strategy: stubStrategy{func(r *Run) error {
			_, err := r.Eval([]Point{{3}, {4}, {5}, {3}})
			return err
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Trace {
		if want, _ := obj(e.Point); e.Cost != want {
			t.Errorf("trace[%d] %s cost %+v, want %+v", i, s.Describe(e.Point), e.Cost, want)
		}
	}
	if got := s.Describe(res.Best.Point); got != "k=4" || res.Best.Cost.Seconds != 1 {
		t.Fatalf("best %s at %+v, want k=4 at 1 s", got, res.Best.Cost)
	}
	if res.Evaluations != 3 || res.CacheHits != 1 {
		t.Fatalf("Evaluations=%d CacheHits=%d, want 3 and 1", res.Evaluations, res.CacheHits)
	}
}

// FuzzEval drives Run.Eval with batches full of duplicates through a tiny
// sharded LRU cache (1–8 entries over 1–4 shards) under a budget, over an
// axis of 1–64 points. Batch bytes pick points; 0xff ends a batch. Every
// trace entry must carry its point's objective cost, every request must
// be an evaluation or a hit, Best must be the trace's minimum, and the
// objective must run exactly Evaluations times. The seeds, among them a
// leader evicted by its own batch, are in testdata/fuzz/FuzzEval.
func FuzzEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, axisLen, capacity, shards, budget uint8, batches []byte) {
		n := 1 + int(axisLen)%64
		s := NewSpace(IntRange("k", 0, n-1, 1))
		cost := func(p Point) Cost {
			return Cost{Seconds: 1 + float64(p[0]*37%n), Joules: float64(p[0])}
		}
		var calls atomic.Int64
		obj := func(p Point) (Cost, error) {
			calls.Add(1)
			return cost(p), nil
		}
		var plan [][]Point
		var batch []Point
		for _, b := range append(batches, 0xff) {
			if b != 0xff {
				batch = append(batch, Point{int(b) % n})
			} else if len(batch) > 0 {
				plan = append(plan, batch)
				batch = nil
			}
		}
		if len(plan) == 0 {
			return
		}
		res, err := Minimize(s, obj, Options{
			Cache:  cache.New[Cost](1+int(capacity)%8, 1+int(shards)%4),
			Budget: int(budget) % 16,
			Strategy: stubStrategy{func(r *Run) error {
				for _, b := range plan {
					if _, err := r.Eval(b); err != nil {
						return err
					}
				}
				return nil
			}},
		})
		if err != nil {
			t.Fatal(err) // a budget of 1 or more always admits the first point
		}
		best := res.Trace[0]
		for i, e := range res.Trace {
			if want := cost(e.Point); e.Cost != want {
				t.Fatalf("trace[%d] %s cost %+v, want %+v", i, s.Describe(e.Point), e.Cost, want)
			}
			if e.Cost.Seconds < best.Cost.Seconds {
				best = e
			}
		}
		if !reflect.DeepEqual(res.Best, best) {
			t.Fatalf("Best %+v, want the trace minimum %+v", res.Best, best)
		}
		if res.Evaluations+res.CacheHits != len(res.Trace) {
			t.Fatalf("Evaluations %d + CacheHits %d != %d trace entries", res.Evaluations, res.CacheHits, len(res.Trace))
		}
		if calls.Load() != int64(res.Evaluations) {
			t.Fatalf("objective ran %d times, Evaluations = %d", calls.Load(), res.Evaluations)
		}
	})
}

type stubStrategy struct{ f func(r *Run) error }

func (s stubStrategy) Name() string        { return "stub" }
func (s stubStrategy) Search(r *Run) error { return s.f(r) }

// TestParallelEvalDeterministic checks that a batch evaluated on the pool
// records the same trace as the same points evaluated one at a time: Grid
// hands Eval all 64 points at once, the stub calls Eval1 on each in turn.
func TestParallelEvalDeterministic(t *testing.T) {
	s := NewSpace(IntRange("k", 0, 63, 1))
	obj := func(p Point) (Cost, error) {
		return Cost{Seconds: math.Sin(float64(p[0]))}, nil
	}
	oneByOne := stubStrategy{func(r *Run) error {
		for _, p := range r.Space().Points() {
			if _, err := r.Eval1(p); err != nil {
				return err
			}
		}
		return nil
	}}
	run := func(st Strategy) Result {
		res, err := Minimize(s, obj, Options{Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(Grid{}), run(oneByOne)
	if a.Evaluations != 64 || b.Evaluations != 64 {
		t.Fatalf("evaluations = %d and %d, want 64 each", a.Evaluations, b.Evaluations)
	}
	if !reflect.DeepEqual(a.Best, b.Best) {
		t.Fatalf("batched best %+v != one-at-a-time best %+v", a.Best, b.Best)
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatalf("batched trace differs from the one-at-a-time trace:\n%+v\n%+v", a.Trace, b.Trace)
	}
}

func TestBudgetStopsSearch(t *testing.T) {
	s := NewSpace(IntRange("k", 0, 99, 1))
	var evals int64
	res, err := Minimize(s, quadratic(50, &evals), Options{Strategy: Grid{}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("want Exhausted after budget cut")
	}
	if evals != 10 {
		t.Fatalf("true evals = %d, want exactly the budget 10", evals)
	}
	if len(res.Trace) != 10 {
		t.Fatalf("trace len = %d, want 10", len(res.Trace))
	}
}

func TestHillClimbFindsGoodPoint(t *testing.T) {
	// Separable 2-D bowl: hill climbing from any start reaches the optimum.
	s := NewSpace(IntRange("a", 0, 15, 1), IntRange("b", 0, 15, 1))
	obj := func(p Point) (Cost, error) {
		da, db := float64(p[0]-11), float64(p[1]-3)
		return Cost{Seconds: da*da + db*db}, nil
	}
	res, err := Minimize(s, obj, Options{Strategy: HillClimb{Restarts: 3}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Point[0] != 11 || res.Best.Point[1] != 3 {
		t.Fatalf("hillclimb best = %v, want [11 3]", res.Best.Point)
	}
	if res.Evaluations >= s.Size() {
		t.Fatalf("hillclimb used %d evals, no better than grid's %d", res.Evaluations, s.Size())
	}
}

func TestObjectiveErrorPropagates(t *testing.T) {
	s := NewSpace(IntRange("k", 0, 9, 1))
	boom := errors.New("boom")
	_, err := Minimize(s, func(p Point) (Cost, error) {
		if p[0] == 5 {
			return Cost{}, boom
		}
		return Cost{Seconds: 1}, nil
	}, Options{Strategy: Grid{}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestBestSoFarMonotone(t *testing.T) {
	s := NewSpace(IntRange("k", 0, 47, 1))
	var evals int64
	res, err := Minimize(s, quadratic(20, &evals), Options{Strategy: HillClimb{Restarts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	curve := res.BestSoFar()
	if len(curve) != len(res.Trace) {
		t.Fatalf("curve len %d != trace len %d", len(curve), len(res.Trace))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatalf("best-so-far rose at %d: %g > %g", i, curve[i], curve[i-1])
		}
	}
	if curve[len(curve)-1] != res.Best.Cost.Seconds {
		t.Fatalf("curve end %g != best %g", curve[len(curve)-1], res.Best.Cost.Seconds)
	}
}

func TestByIDCaseInsensitive(t *testing.T) {
	for _, id := range []string{"w1-block", "W1-BLOCK", "w1", "F25-interval", "f25"} {
		if _, err := ByID(id, true); err != nil {
			t.Errorf("ByID(%q): %v", id, err)
		}
	}
	if _, err := ByID("nope", true); err == nil {
		t.Error("ByID(nope) succeeded, want error")
	}
}

func TestAutoStrategySelection(t *testing.T) {
	if s := Auto(NewSpace(IntRange("k", 0, 47, 1))); s.Name() != (GoldenSection{}).Name() {
		t.Errorf("long numeric axis: Auto = %s, want golden-section", s.Name())
	}
	if s := Auto(NewSpace(Choice("alg", "a", "b", "c"))); s.Name() != (Grid{}).Name() {
		t.Errorf("small space: Auto = %s, want grid", s.Name())
	}
	big := NewSpace(IntRange("a", 0, 15, 1), IntRange("b", 0, 15, 1))
	if s := Auto(big); s.Name() != (HillClimb{Restarts: 3}).Name() {
		t.Errorf("multi-dim space: Auto = %s, want hill-climb", s.Name())
	}
}

func TestF25GoldenBeatsGridOnEvals(t *testing.T) {
	// The flagship acceptance check: golden-section tunes the checkpoint
	// interval in <= 15 evaluations; grid needs the whole axis.
	tn, err := ByID("F25-interval", false)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Petascale2009()
	grid, err := tn.Tune(m, Options{Strategy: Grid{}})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := tn.Tune(m, Options{Strategy: GoldenSection{}})
	if err != nil {
		t.Fatal(err)
	}
	if grid.Evaluations != tn.Space.Size() {
		t.Errorf("grid evals = %d, want full sweep %d", grid.Evaluations, tn.Space.Size())
	}
	if golden.Evaluations > 15 {
		t.Errorf("golden evals = %d, want <= 15", golden.Evaluations)
	}
	if golden.Best.Cost.Seconds > 1.10*grid.Best.Cost.Seconds {
		t.Errorf("golden %.4g > 1.10 x oracle %.4g", golden.Best.Cost.Seconds, grid.Best.Cost.Seconds)
	}
}

func TestTunablesDescribe(t *testing.T) {
	for _, tn := range Tunables(true) {
		if err := tn.Space.Check(tn.Default); err != nil {
			t.Errorf("%s default invalid: %v", tn.ID, err)
		}
		if tn.DefaultLabel() == "" {
			t.Errorf("%s has empty default label", tn.ID)
		}
		if tn.Title == "" || tn.ModeID == "" {
			t.Errorf("%s missing title or mode", tn.ID)
		}
	}
	if len(Tunables(false)) != len(Tunables(true)) {
		t.Error("quick and full registries disagree on tunable count")
	}
}

func ExampleMinimize() {
	space := NewSpace(IntRange("k", 0, 47, 1))
	res, _ := Minimize(space, func(p Point) (Cost, error) {
		d := float64(p[0] - 31)
		return Cost{Seconds: 1 + d*d}, nil
	}, Options{Strategy: GoldenSection{}})
	fmt.Printf("best %s after %d evaluations\n", space.Describe(res.Best.Point), res.Evaluations)
	// Output: best k=31 after 8 evaluations
}
