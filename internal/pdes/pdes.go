// Package pdes is the partitioned, conservatively-synchronized parallel
// discrete-event simulation engine, the repository's one DES kernel: F28
// runs its million-rank idle wave on it, and every pgas world
// (internal/pgas) and T12's daemon simulator (internal/serve/sim) run on it
// as a single engine rank. Ranks are split into contiguous partitions,
// each with its own ladder (calendar) queue of pending events; partitions
// advance together through fixed virtual-time windows of one
// lookahead, the lower bound on any cross-partition message delay. Within
// a window every partition processes its events independently; events
// bound for another partition are buffered into per-(src,dst) chunk chains
// drawn from per-partition slab arenas and delivered at the next window
// boundary — the paper's W7 aggregation remedy applied to the engine
// itself, with zero steady-state allocation. Every run has one window loop:
// the goroutine that calls Run is worker 0 and the coordinator, nw-1 helper
// goroutines run the other partition strides, and all nw synchronise
// windows through a padded sense-reversing barrier with an inline GVT
// min-reduce. With one worker no helper starts and the barrier never spins.
//
// Determinism: every event carries the key (Time, Src, Seq) where Seq is a
// 64-bit per-source emission counter, so keys are unique and queue order is
// total. A workload whose cross-rank messages all have delay >= the
// lookahead produces byte-identical results at any partition and worker
// count: such an event always crosses a window boundary, so it is delivered
// before the receiving window starts no matter which partition owns the
// ranks. Self-events (Dst == emitting rank) may use any non-negative
// delay. The engine enforces the weaker, partition-dependent half of this
// contract at emission time — a cross-partition event timestamped inside
// the current window is an error, not a silent reordering.
package pdes

import (
	"errors"
	"fmt"

	"tenways/internal/obs"
)

// Event is one scheduled occurrence, a plain value: the engine never
// allocates per event — heaps and cross-partition batches are reused slabs
// of these.
type Event struct {
	Time float64 // virtual seconds
	Data float64 // workload payload
	Src  int32   // emitting rank
	Dst  int32   // receiving rank
	Seq  uint64  // per-source emission counter; (Time, Src, Seq) is unique
	Kind int32   // workload-defined discriminator
	Step int32   // workload-defined step/phase counter
}

// Sched is the emission interface handlers see: one per partition, backed
// by the partition's queue and its batched cross-partition channels.
type Sched interface {
	// Now returns the timestamp of the event being handled (0 during Init).
	Now() float64
	// At schedules an event of the given kind on rank dst at virtual time
	// t (clamped to Now). The emitting rank becomes the event's Src.
	At(dst int, t float64, kind, step int32, data float64)
}

// Workload is a partition-agnostic event-driven simulation: Init seeds each
// rank's first events (self-events at any time; cross-rank events are
// delivered before the first window), then Handle runs once per event on
// the rank the event targets. Handlers for different ranks run concurrently
// on different partitions and must only interact through Sched.At.
type Workload interface {
	Ranks() int
	Init(s Sched, rank int)
	Handle(s Sched, ev Event)
}

// maxPartitions bounds the P x P cross-partition batch matrix.
const maxPartitions = 256

// Config parameterises a Run.
type Config struct {
	// Partitions splits the ranks into this many contiguous blocks;
	// <= 0 selects 8. Clamped to [1, min(Ranks, 256)].
	Partitions int
	// Workers bounds the goroutines processing partitions; <= 0 selects
	// min(Partitions, GOMAXPROCS) — more workers than cores only adds
	// scheduling churn. The caller of Run is worker 0, and nw-1 helper
	// goroutines are started for a resolved count nw. Clamped to
	// [1, Partitions].
	// Any worker count produces identical results — only wall time
	// changes.
	Workers int
	// Lookahead is the window length in virtual seconds: the lower bound
	// on incoming cross-partition timestamps. Must be positive and no
	// larger than the workload's minimum cross-rank message delay.
	Lookahead float64
	// Obs receives the run's engine metrics (pdes.events, pdes.windows,
	// pdes.window_stalls, pdes.cross_events, pdes.cross_batches,
	// pdes.chunk_allocs, pdes.ladder_respreads); nil keeps the engine
	// silent.
	Obs *obs.Registry
}

// Validate checks the configuration without resolving defaults (Run still
// resolves Partitions/Workers zero values).
// Every failure wraps ErrConfig plus one of the specific sentinels, so
// callers can branch with errors.Is at either granularity.
func (c Config) Validate() error {
	if c.Lookahead <= 0 {
		return ErrLookahead
	}
	if c.Partitions > maxPartitions {
		return fmt.Errorf("%w: Partitions %d exceeds the %d-partition batch matrix", ErrPartitions, c.Partitions, maxPartitions)
	}
	return nil
}

// Result summarises a completed run. Only VirtualTime and Events are
// partition-independent; the window and batching counters describe how this
// particular configuration ran and must not leak into deterministic output.
type Result struct {
	VirtualTime  float64 // timestamp of the last processed event
	Events       uint64  // events committed (partition-independent)
	Windows      uint64  // synchronisation windows executed
	Stalls       uint64  // (partition, window) pairs that processed nothing
	CrossEvents  uint64  // events that crossed a partition boundary
	CrossBatches uint64  // non-empty (src, dst) batches delivered
	Partitions   int     // resolved partition count
	Workers      int     // resolved worker count
}

// ErrConfig is the sentinel every configuration error wraps: every Validate
// failure satisfies errors.Is(err, ErrConfig).
var ErrConfig = errors.New("pdes: invalid config")

var (
	// ErrLookahead reports a non-positive Config.Lookahead.
	ErrLookahead = fmt.Errorf("%w: Config.Lookahead must be positive", ErrConfig)
	// ErrPartitions reports Config.Partitions beyond maxPartitions —
	// previously clamped silently, now a typed error.
	ErrPartitions = fmt.Errorf("%w: too many partitions", ErrConfig)
)
