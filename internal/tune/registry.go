package tune

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"tenways/internal/chaos"
	"tenways/internal/collective"
	"tenways/internal/kernels"
	"tenways/internal/machine"
	"tenways/internal/pgas"
	"tenways/internal/sched"
	"tenways/internal/waste"
	"tenways/internal/workload"
)

// Tunable is one registered remedy parameter: its search space, the
// hand-picked default the code used to hard-code, and an objective that
// models a candidate on a machine. The registry replaces the suite's
// scattered constants with machine-derived optima.
type Tunable struct {
	ID       string // e.g. "W1-block"
	ModeID   string // the waste mode / experiment the parameter remedies
	Title    string
	Space    *Space
	Default  Point // the previously hard-coded constant
	Unimodal bool  // single numeric axis with a unimodal objective: golden-section applies
	// Quick records which registry variant built this tunable. Quick and
	// full variants model different workloads over different axes, so the
	// flag is part of the evaluation-cache identity.
	Quick bool

	objective func(m *machine.Spec) Objective
}

// Objective binds the tunable's model to a machine.
func (t Tunable) Objective(m *machine.Spec) Objective { return t.objective(m) }

// DefaultLabel renders the hand-picked default.
func (t Tunable) DefaultLabel() string { return t.Space.Describe(t.Default) }

// Strategy returns the tunable's natural search: golden-section where the
// objective is unimodal along a single axis, otherwise the automatic
// choice.
func (t Tunable) Strategy() Strategy {
	if t.Unimodal {
		return GoldenSection{}
	}
	return Auto(t.Space)
}

// Tune searches the tunable's space on the machine. Unset options get the
// tunable's defaults: its natural strategy, a cache key identifying
// (machine, tunable), and the hand-picked default as a seed point so the
// result never loses to the status quo.
func (t Tunable) Tune(m *machine.Spec, opts Options) (Result, error) {
	if opts.Strategy == nil {
		opts.Strategy = t.Strategy()
	}
	if opts.CacheKey == "" {
		// quick is part of the key: the quick and full registries model
		// different workloads on different axes under the same ID, and a
		// shared long-lived cache (the daemon's) must never serve one
		// variant's point costs to the other.
		opts.CacheKey = m.Name + "|" + t.ID + "|quick=" + strconv.FormatBool(t.Quick)
	}
	if opts.Seeds == nil {
		opts.Seeds = []Point{t.Default}
	}
	return Minimize(t.Space, t.objective(m), opts)
}

// TuneVsDefault runs Tune with opts, with the hand-picked default as the
// first seed, and prices the default by that seed's evaluation. It returns
// the search result, the default's cost, and the fraction of that cost the
// tuned point saves, 1 − tuned/default (0 when the default costs nothing).
func (t Tunable) TuneVsDefault(m *machine.Spec, opts Options) (res Result, def Cost, saving float64, err error) {
	opts.Seeds = append([]Point{t.Default}, opts.Seeds...)
	if res, err = t.Tune(m, opts); err != nil {
		return Result{}, Cost{}, 0, err
	}
	def = res.Trace[0].Cost
	if def.Seconds > 0 {
		saving = 1 - res.Best.Cost.Seconds/def.Seconds
	}
	return res, def, saving, nil
}

// Tunables returns the registered remedy parameters. quick shrinks the
// modeled problems (and with them the spaces) for tests and -short runs;
// quick and full tunables model different workloads under the same IDs, so
// the flag is stamped onto every tunable and carried into the default
// evaluation-cache key — a shared cache can hold both variants.
func Tunables(quick bool) []Tunable {
	ts := []Tunable{
		w1Block(quick),
		w7Aggregation(quick),
		t3Allreduce(quick),
		f13Replication(quick),
		f4Chunk(quick),
		f25Checkpoint(quick),
	}
	for i := range ts {
		ts[i].Quick = quick
	}
	return ts
}

// ByID returns the named tunable, case-insensitively. The full ID
// ("W1-block"), its experiment prefix ("W1"), and the remedied waste mode
// ("F4-chunk" remedies W4) all match.
func ByID(id string, quick bool) (Tunable, error) {
	known := make([]string, 0, len(Tunables(quick)))
	for _, t := range Tunables(quick) {
		prefix, _, _ := strings.Cut(t.ID, "-")
		if strings.EqualFold(t.ID, id) || strings.EqualFold(t.ModeID, id) || strings.EqualFold(prefix, id) {
			return t, nil
		}
		known = append(known, t.ID)
	}
	return Tunable{}, fmt.Errorf("tune: unknown tunable %q (known: %v)", id, known)
}

// indexOf locates value v on the numeric axis, panicking if absent — used
// to express defaults by value rather than by index.
func indexOf(a Axis, v int) int {
	for i := 0; i < a.Len(); i++ {
		if a.IntAt(i) == v {
			return i
		}
	}
	panic(fmt.Sprintf("tune: default %d not on axis %q", v, a.Name()))
}

// w1Block tunes the matmul cache-block size (W1/F1): too small re-walks
// the block descriptors, too large spills the cache — the optimum follows
// the machine's cache geometry.
func w1Block(quick bool) Tunable {
	n := 96
	axis := Explicit("block", 4, 6, 8, 12, 16, 24, 32, 48, 96)
	if quick {
		n = 48
		axis = Explicit("block", 4, 8, 16, 24, 48)
	}
	space := NewSpace(axis)
	return Tunable{
		ID:       "W1-block",
		ModeID:   "W1",
		Title:    fmt.Sprintf("matmul cache-block size (n=%d, traced)", n),
		Space:    space,
		Default:  Point{indexOf(axis, 8)},
		Unimodal: true,
		objective: func(m *machine.Spec) Objective {
			return func(p Point) (Cost, error) {
				res, _, err := waste.MatmulLocality(m, n, space.Int(p, "block"))
				if err != nil {
					return Cost{}, err
				}
				return Cost{Seconds: res.Seconds, Joules: res.Joules}, nil
			}
		},
	}
}

// w7Aggregation tunes the message-aggregation size (W7/F7): the optimum
// tracks the machine's n½ knee, not any fixed buffer constant.
func w7Aggregation(quick bool) Tunable {
	words := 1 << 16
	axis := LogRange("msg-words", 1, words, 4)
	if quick {
		words = 1 << 12
		axis = LogRange("msg-words", 1, words, 4)
	}
	space := NewSpace(axis)
	return Tunable{
		ID:       "W7-msg",
		ModeID:   "W7",
		Title:    fmt.Sprintf("message aggregation size (%d words rank0→rank1)", words),
		Space:    space,
		Default:  Point{indexOf(axis, 1024)},
		Unimodal: true,
		objective: func(m *machine.Spec) Objective {
			return func(p Point) (Cost, error) {
				res, err := waste.BulkTransfer(m, words, space.Int(p, "msg-words"))
				if err != nil {
					return Cost{}, err
				}
				return Cost{Seconds: res.Seconds, Joules: res.Joules}, nil
			}
		},
	}
}

// t3Allreduce tunes allreduce algorithm selection (T3/F14) as an
// enumerated choice: which algorithm wins depends on the machine's α/β
// ratio and the vector size. The objective reads only time and energy, so
// it runs the size-only allreduce (collective.Comm.AllreduceSize).
func t3Allreduce(quick bool) Tunable {
	p, vecWords := 64, 16384
	if quick {
		p, vecWords = 16, 1024
	}
	space := NewSpace(Choice("alg", collective.AllreduceAlgorithms()...))
	return Tunable{
		ID:      "T3-allreduce",
		ModeID:  "T3",
		Title:   fmt.Sprintf("allreduce algorithm (P=%d, %d words)", p, vecWords),
		Space:   space,
		Default: Point{0}, // flat — the naive hard-coded choice
		objective: func(m *machine.Spec) Objective {
			return func(pt Point) (Cost, error) {
				alg := space.Str(pt, "alg")
				w := pgas.NewWorld(p, m, nil, nil)
				var innerErr error
				secs, err := w.Run(func(r *pgas.Rank) {
					if e := collective.New(r).AllreduceSize(alg, vecWords); e != nil && r.ID() == 0 {
						innerErr = e
					}
				})
				if err != nil {
					return Cost{}, err
				}
				if innerErr != nil {
					return Cost{}, innerErr
				}
				return Cost{Seconds: secs, Joules: w.Meter().Total()}, nil
			}
		},
	}
}

// f13Replication tunes the 2.5D matmul replication factor c (F13): more
// replicas cut communication volume per the Ballard–Demmel bound at the
// price of memory.
func f13Replication(quick bool) Tunable {
	n, p := 8192, 4096
	if quick {
		n, p = 2048, 512
	}
	cs := make([]int, 0, bits.Len(uint(kernels.MaxReplication(p))))
	for c := 1; c <= kernels.MaxReplication(p); c *= 2 {
		cs = append(cs, c)
	}
	axis := Explicit("c", cs...)
	space := NewSpace(axis)
	return Tunable{
		ID:       "F13-c",
		ModeID:   "F13",
		Title:    fmt.Sprintf("2.5D matmul replication factor (n=%d, p=%d)", n, p),
		Space:    space,
		Default:  Point{0}, // c=1: SUMMA, no replication
		Unimodal: true,
		objective: func(m *machine.Spec) Objective {
			return func(pt Point) (Cost, error) {
				mm := kernels.CommAvoidingMatMul{N: n, P: p, C: space.Int(pt, "c")}
				return Cost{Seconds: mm.CommSeconds(m), Joules: mm.CommJoules(m)}, nil
			}
		},
	}
}

// chunkGrabSec models the cost of one grab on the chunked scheduler's
// shared counter: a coherence round trip to the machine's outermost
// shared cache level (DRAM latency when nothing is shared).
func chunkGrabSec(m *machine.Spec) float64 {
	lat := m.DRAM.LatencyCycles
	for _, l := range m.Levels {
		if l.Shared {
			lat = l.LatencyCycles
		}
	}
	return 2 * lat * m.CycleSec()
}

// f4Chunk tunes the dynamic-scheduling chunk size (W4/F4): tiny chunks
// serialise on the shared counter, huge chunks re-create static imbalance
// under skewed costs; the optimum follows the machine's coherence latency.
func f4Chunk(quick bool) Tunable {
	nTasks, workers := 4096, 16
	if quick {
		nTasks, workers = 1024, 8
	}
	axis := LogRange("chunk", 1, 512, 2)
	if quick {
		axis = LogRange("chunk", 1, 256, 2)
	}
	space := NewSpace(axis)
	// 100ns tasks with mild skew: fine enough that counter serialisation
	// punishes tiny chunks, skewed enough that huge heavy-first chunks
	// re-create imbalance — an interior, machine-dependent optimum.
	costs := workload.NewTaskDist(chaos.DefaultSeed).ZipfSorted(nTasks, 0.5, 1e-7)
	return Tunable{
		ID:       "F4-chunk",
		ModeID:   "W4",
		Title:    fmt.Sprintf("self-scheduling chunk size (%d Zipf tasks, %d workers)", nTasks, workers),
		Space:    space,
		Default:  Point{indexOf(axis, 64)},
		Unimodal: true,
		objective: func(m *machine.Spec) Objective {
			grab := chunkGrabSec(m)
			return func(pt Point) (Cost, error) {
				mk, _ := sched.PredictChunked(costs, workers, space.Int(pt, "chunk"), grab)
				return Cost{Seconds: mk}, nil
			}
		},
	}
}

// f25Checkpoint tunes the checkpoint interval (F25): the classic U-curve
// between per-checkpoint overhead and expected replay. The objective
// averages the campaign makespan over a spread of failure steps, so the
// tuner cannot cheat by checkpointing right before one known failure.
func f25Checkpoint(quick bool) Tunable {
	ranks, steps := 8, 48
	failSteps := []int{7, 17, 29, 41}
	if quick {
		ranks, steps = 4, 24
		failSteps = []int{5, 11, 17, 23}
	}
	const stepSec = 1e-3
	axis := IntRange("interval", 1, steps, 1)
	space := NewSpace(axis)
	return Tunable{
		ID:       "F25-interval",
		ModeID:   "F25",
		Title:    fmt.Sprintf("checkpoint interval (%d ranks, %d steps, failure-averaged)", ranks, steps),
		Space:    space,
		Default:  Point{indexOf(axis, 8)},
		Unimodal: true,
		objective: func(m *machine.Spec) Objective {
			return func(pt Point) (Cost, error) {
				interval := space.Int(pt, "interval")
				total := 0.0
				for _, fail := range failSteps {
					res, err := chaos.RunCheckpointCampaign(m, chaos.CheckpointConfig{
						Ranks: ranks, Steps: steps, StepSec: stepSec,
						Interval: interval, CkptSec: 0.5 * stepSec,
						FailStep: fail, FailRank: ranks / 2, RestartSec: 4 * stepSec,
					})
					if err != nil {
						return Cost{}, err
					}
					total += res.Makespan
				}
				return Cost{Seconds: total / float64(len(failSteps))}, nil
			}
		},
	}
}
