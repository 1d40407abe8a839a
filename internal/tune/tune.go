package tune

import (
	"errors"
	"fmt"
	"sort"

	"tenways/internal/obs"
	"tenways/internal/sched"
	"tenways/internal/workload"
)

// Cost is the modeled outcome of one candidate: Seconds is the objective
// the strategies minimize; Joules rides along for reporting (the keynote's
// second axis).
type Cost struct {
	Seconds float64
	Joules  float64
}

// Objective evaluates one candidate point. Implementations must be
// deterministic (same point, same cost) and safe to call from multiple
// goroutines: the runner evaluates a batch's fresh candidates in parallel
// on a sched.Pool of up to four workers.
type Objective func(p Point) (Cost, error)

// Eval is one entry of a tuning run's trace.
type Eval struct {
	Point  Point
	Cost   Cost
	Cached bool // satisfied by the memo cache, no objective call
}

// Result is a completed tuning run.
type Result struct {
	Space       *Space
	Strategy    string
	Best        Eval
	Trace       []Eval // in evaluation-request order (deterministic)
	Evaluations int    // fresh objective calls (cache hits excluded)
	CacheHits   int
	Exhausted   bool // the evaluation budget ran out before convergence
}

// BestSoFar returns the running minimum of the trace's objective — the
// convergence curve plotted by F26.
func (r Result) BestSoFar() []float64 {
	out := make([]float64, len(r.Trace))
	best := 0.0
	for i, e := range r.Trace {
		if i == 0 || e.Cost.Seconds < best {
			best = e.Cost.Seconds
		}
		out[i] = best
	}
	return out
}

// Describe renders the chosen point.
func (r Result) Describe() string { return r.Space.Describe(r.Best.Point) }

// Options parameterises a tuning run. A batch's fresh points run on at most
// evalWorkers workers; no result depends on that width.
type Options struct {
	// Strategy picks the search; nil selects automatically: GoldenSection
	// for a single numeric axis, Grid for small spaces, HillClimb
	// otherwise.
	Strategy Strategy
	// Budget caps fresh objective evaluations; 0 means unlimited. When the
	// budget runs out the strategy stops early and the best point seen so
	// far is returned with Exhausted set.
	Budget int
	// Seed drives randomized strategies (hill-climb restarts).
	Seed uint64
	// Cache, when non-nil, memoizes evaluations across runs. A run always
	// dedupes within itself even without one.
	Cache *Cache
	// CacheKey identifies the (machine, workload) the objective models, so
	// a shared cache never conflates different problems.
	CacheKey string
	// Seeds are points evaluated before the strategy starts — typically
	// the hand-picked default, so the tuner never returns something worse
	// than the status quo.
	Seeds []Point
	// Obs receives the run's tuning metrics (tune.evaluations,
	// tune.cache_hits); nil records nothing.
	Obs *obs.Registry
}

// ErrBudget is returned by Run.Eval when the evaluation budget is
// exhausted; strategies treat it as a stop signal and Minimize converts it
// into Result.Exhausted rather than an error.
var ErrBudget = errors.New("tune: evaluation budget exhausted")

// Strategy is a pluggable search: it requests evaluations through the Run
// until it converges or the budget stops it.
type Strategy interface {
	Name() string
	Search(r *Run) error
}

// Run is the strategy's view of an in-progress tuning: it evaluates
// candidates through the memo cache on a sched.Pool and records the trace.
type Run struct {
	space *Space
	obj   Objective
	opts  Options
	cache *Cache
	rng   *workload.Rand
	trace []Eval
	evals int
	hits  int
}

// evalWorkers bounds the pool a batch's fresh evaluations run on.
const evalWorkers = 4

// Space returns the space under search.
func (r *Run) Space() *Space { return r.space }

// Rand returns the run's seeded deterministic random stream.
func (r *Run) Rand() *workload.Rand { return r.rng }

func (r *Run) key(p Point) string { return r.opts.CacheKey + "|" + p.Key() }

// Eval evaluates the given candidates and returns their costs in request
// order. Cached points cost nothing; fresh points, deduplicated within the
// batch, run in parallel on a sched.Pool of up to evalWorkers. If the
// budget cannot cover the fresh points, the batch is trimmed to fit, its
// results are recorded, and ErrBudget is returned alongside the evaluated
// prefix's costs.
func (r *Run) Eval(points []Point) ([]Cost, error) {
	for _, p := range points {
		if err := r.space.Check(p); err != nil {
			return nil, err
		}
	}
	type slot struct {
		cost   Cost
		cached bool
		fresh  bool // this index performs the objective call
		err    error
	}
	slots := make([]slot, len(points))
	leaders := map[string]bool{} // cache keys already fresh in this batch
	budgetHit := false
	n := len(points)
	fresh := make([]int, 0, len(points)) // indices that call the objective
	for i, p := range points {
		k := r.key(p)
		if c, ok := r.cache.Get(k); ok {
			slots[i] = slot{cost: c, cached: true}
			continue
		}
		if leaders[k] {
			// Duplicate within the batch: follow the leader, count as hit.
			slots[i] = slot{cached: true}
			continue
		}
		if r.opts.Budget > 0 && r.evals+len(fresh)+1 > r.opts.Budget {
			// Trim the batch: everything from here on is unevaluated.
			budgetHit = true
			n = i
			break
		}
		leaders[k] = true
		slots[i].fresh = true
		fresh = append(fresh, i)
	}
	// Run the fresh evaluations on the bounded pool.
	sched.NewPool(min(evalWorkers, len(fresh)), nil).ForEachChunked(len(fresh), 1, func(j int) {
		i := fresh[j]
		slots[i].cost, slots[i].err = r.obj(points[i])
	})
	// Commit results in request order: fill duplicate followers, publish
	// to the cache, record the trace deterministically.
	costs := make([]Cost, 0, n)
	for i := 0; i < n; i++ {
		s := &slots[i]
		k := r.key(points[i])
		if s.fresh {
			if s.err != nil {
				return nil, fmt.Errorf("tune: %s: %w", r.space.Describe(points[i]), s.err)
			}
			r.cache.Put(k, s.cost)
			r.evals++
		} else if s.cached {
			if c, ok := r.cache.Get(k); ok {
				s.cost = c
			}
			r.hits++
		}
		r.trace = append(r.trace, Eval{Point: points[i].Clone(), Cost: s.cost, Cached: !s.fresh})
		costs = append(costs, s.cost)
	}
	if budgetHit {
		return costs, ErrBudget
	}
	return costs, nil
}

// Eval1 evaluates a single point.
func (r *Run) Eval1(p Point) (Cost, error) {
	cs, err := r.Eval([]Point{p})
	if len(cs) == 1 {
		return cs[0], err
	}
	return Cost{}, err
}

// Auto returns the automatic strategy choice for a space: GoldenSection
// for one numeric axis with enough points to beat enumeration, Grid for
// small spaces, HillClimb for large multi-dimensional ones.
func Auto(s *Space) Strategy {
	if s.Dims() == 1 && s.axes[0].Numeric() && s.axes[0].Len() > 4 {
		return GoldenSection{}
	}
	if s.Size() <= 64 {
		return Grid{}
	}
	return HillClimb{Restarts: 3}
}

// Minimize searches the space for the point with the lowest
// Cost.Seconds. The options' seed points (typically the hand-picked
// default) are evaluated first, so the result never loses to them. A
// budget exhaustion is not an error: the best point found so far is
// returned with Exhausted set.
func Minimize(space *Space, obj Objective, opts Options) (Result, error) {
	if space == nil || space.Dims() == 0 {
		return Result{}, errors.New("tune: empty space")
	}
	if obj == nil {
		return Result{}, errors.New("tune: nil objective")
	}
	strategy := opts.Strategy
	if strategy == nil {
		strategy = Auto(space)
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewCache()
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 2009
	}
	run := &Run{
		space: space,
		obj:   obj,
		opts:  opts,
		cache: cache,
		rng:   workload.NewRand(seed),
	}
	exhausted := false
	if len(opts.Seeds) > 0 {
		if _, err := run.Eval(opts.Seeds); err == ErrBudget {
			exhausted = true
		} else if err != nil {
			return Result{}, err
		}
	}
	if !exhausted {
		if err := strategy.Search(run); err == ErrBudget {
			exhausted = true
		} else if err != nil {
			return Result{}, err
		}
	}
	if len(run.trace) == 0 {
		return Result{}, errors.New("tune: strategy evaluated no points")
	}
	best := run.trace[0]
	for _, e := range run.trace[1:] {
		if e.Cost.Seconds < best.Cost.Seconds {
			best = e
		}
	}
	opts.Obs.Counter("tune.evaluations").Add(int64(run.evals))
	opts.Obs.Counter("tune.cache_hits").Add(int64(run.hits))
	return Result{
		Space:       space,
		Strategy:    strategy.Name(),
		Best:        best,
		Trace:       run.trace,
		Evaluations: run.evals,
		CacheHits:   run.hits,
		Exhausted:   exhausted,
	}, nil
}

// sortPointsStable orders points lexicographically; used by strategies
// that collect candidate sets from maps to keep evaluation order
// deterministic.
func sortPointsStable(ps []Point) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
