// Package tenways is a laboratory for the ten ways to waste a parallel
// computer (Yelick, ISCA 2009 keynote). It pairs each canonical waste mode
// with a wasteful and a remedied implementation, models their time and —
// central to the keynote — their energy on parameterised machines from a
// 2009 laptop to a projected exascale node, and regenerates the full
// evaluation suite of tables and figures described in DESIGN.md.
//
// Three entry points cover most uses:
//
//   - Wastes and RunWaste: the catalogue of the ten modes and their
//     demonstrators on a chosen machine.
//   - NewLab: the experiment registry; Run("T1", ...) through
//     Run("F25", ...) regenerate every table and figure.
//   - Audit: run your own parallel loop under the instrumented runtime and
//     get a diagnosis of which wastes it exhibits.
//
// The chaos surface (Scenario, NewJitter, NewStraggler, NewSpike) injects
// seeded, deterministic noise and faults into simulated worlds so the
// remedies can be tested against extrinsic waste too; see examples/chaos.
//
// The tune surface (Tunables, TunableByID, DiagnoseOn) searches each
// remedy's parameter space — block sizes, message sizes, replication
// factors, checkpoint intervals, algorithm choices — for the machine at
// hand instead of trusting hard-coded constants; see examples/tune.
//
// The heavy machinery (cache and network simulators, the PGAS runtime, the
// collectives, the kernels) lives under internal/; this package re-exports
// the stable surface.
package tenways

import (
	"tenways/internal/chaos"
	"tenways/internal/collective"
	"tenways/internal/core"
	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/pgas"
	"tenways/internal/report"
	"tenways/internal/sched"
	"tenways/internal/trace"
	"tenways/internal/tune"
	"tenways/internal/waste"
	"tenways/internal/workload"
)

// Machine is a parameterised machine description (cores, clock, caches,
// DRAM, interconnect, energy constants). Build your own or use a preset.
type Machine = machine.Spec

// Machines returns the built-in machine presets: laptop2009,
// petascale2009, petascale2009-proportional, and exascale.
func Machines() []*Machine { return machine.Presets() }

// MachineByName returns the named preset, or nil if unknown.
func MachineByName(name string) *Machine { return machine.Preset(name) }

// Laptop2009 returns the 2009 dual-core laptop preset.
func Laptop2009() *Machine { return machine.Laptop2009() }

// Petascale2009 returns the 2009 petascale-node preset (the default
// machine of the evaluation suite).
func Petascale2009() *Machine { return machine.Petascale2009() }

// Exascale returns the projected exascale-node preset.
func Exascale() *Machine { return machine.Exascale() }

// WasteMode is one of the ten ways: its identity, the keynote sentence it
// reifies, and a runnable wasteful/remedied demonstrator.
type WasteMode = waste.Mode

// WasteOutcome pairs the demonstrator's two variants.
type WasteOutcome = waste.Outcome

// Wastes returns the ten ways in canonical order, W1 through W10.
func Wastes() []WasteMode { return waste.Modes() }

// RunWaste runs one waste mode's demonstrator on the given machine.
func RunWaste(id string, m *Machine) (WasteOutcome, error) {
	mode, err := waste.ByID(id)
	if err != nil {
		return WasteOutcome{}, err
	}
	return mode.Run(m)
}

// Lab is the experiment registry that regenerates the evaluation suite.
type Lab = core.Lab

// Config parameterises experiment runs (machine choice, quick mode).
type Config = core.Config

// Output is an experiment's result: a table, a figure, or both.
type Output = core.Output

// Experiment is one registered table or figure generator.
type Experiment = core.Experiment

// NewLab returns the full evaluation suite: T1–T13 and F1–F28.
func NewLab() *Lab { return core.NewLab() }

// RunOptions parameterises Lab.RunAll: worker-pool width, the experiment
// subset, and an optional in-order result stream.
type RunOptions = core.RunOptions

// RunResult is one experiment's outcome under Lab.RunAll: output, error,
// wall time, and the experiment's own metrics snapshot.
type RunResult = core.RunResult

// LabReport is the machine-readable record of a suite run (wastelab -json).
type LabReport = core.LabReport

// RunRecord is one experiment's entry in a LabReport.
type RunRecord = core.RunRecord

// NewLabReport assembles the JSON report for a completed RunAll.
func NewLabReport(cfg Config, workers int, results []RunResult) *LabReport {
	return core.NewLabReport(cfg, workers, results)
}

// Renderer writes tables and figures in one output format; see
// RendererByName and Output.RenderWith.
type Renderer = report.Renderer

// RendererByName returns the renderer for "ascii", "markdown", "csv", or
// "json" (with "text" and "md" aliases).
func RendererByName(name string) (Renderer, error) { return report.RendererByName(name) }

// RenderFormats lists the selectable renderer names.
func RenderFormats() []string { return report.Formats() }

// Metrics is a registry of counters, gauges, and histograms — the
// dependency-free observability layer every subsystem records into. Thread
// one through Config.Obs to attribute a run's metrics, or leave it nil to
// record nothing.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// MetricsSnapshot is a registry's state at one instant: plain maps, safe
// to marshal, compare, and merge.
type MetricsSnapshot = obs.Snapshot

// Injector perturbs a simulated run: after a rank spends d busy seconds
// ending at virtual time now, Delay returns the extra seconds stolen from
// it. All built-in injectors are seeded and deterministic.
type Injector = chaos.Injector

// Scenario composes injectors into one perturbation plan;
// arm it on a World with Scenario.Arm. An empty scenario injects nothing
// and leaves runs bit-identical to unperturbed ones.
type Scenario = chaos.Scenario

// NewScenario returns an empty chaos scenario.
func NewScenario() *Scenario { return chaos.NewScenario() }

// JitterDist selects a jitter injector's delay distribution.
type JitterDist = chaos.Dist

// The jitter distributions.
const (
	JitterUniform     JitterDist = chaos.Uniform
	JitterExponential JitterDist = chaos.Exponential
	JitterBursty      JitterDist = chaos.Bursty
)

// NewJitter creates a seeded per-rank compute-jitter injector with expected
// injected time frac·(busy time) for worlds of up to ranks ranks.
func NewJitter(dist JitterDist, frac float64, seed uint64, ranks int) Injector {
	return chaos.NewJitter(dist, frac, seed, ranks)
}

// NewStraggler creates an injector that permanently slows one rank by the
// given factor (2 = half speed).
func NewStraggler(rank int, factor float64) Injector {
	return chaos.NewStraggler(rank, factor)
}

// NewSpike creates a one-shot injector: a single delay of duration seconds
// hits rank's first busy period completing at or after virtual time at.
func NewSpike(rank int, at, duration float64) Injector {
	return chaos.NewSpike(rank, at, duration)
}

// Pool is the measured-plane parallel runtime: a fixed-width worker pool
// with static, chunked, guided, and work-stealing loop schedulers. Worker 0
// is the calling goroutine, and every loop returns once all its iterations
// have run. The lab's own runner (Lab.RunAll) and the tuner use the same
// pool.
type Pool = sched.Pool

// NewPool creates a pool of the given width, attributing time to rec
// (which may be nil).
func NewPool(workers int, rec *Recorder) *Pool { return sched.NewPool(workers, rec) }

// Recorder attributes measured wall-clock time to waste categories.
type Recorder = trace.Recorder

// NewRecorder creates a recorder for n workers.
func NewRecorder(workers int) *Recorder { return trace.NewRecorder(workers) }

// Breakdown is a snapshot of a Recorder.
type Breakdown = trace.Breakdown

// Category is one bucket of attributed time in a Breakdown.
type Category = trace.Category

// NoiseCategory is the category injected chaos time is charged to; query a
// Breakdown with Of/Fraction(NoiseCategory) to see what the injectors cost.
const NoiseCategory = trace.Noise

// Advice is one diagnosed waste mode with evidence and a remedy.
type Advice = core.Advice

// Diagnose maps a measured trace breakdown to the waste modes it exhibits,
// most severe first.
func Diagnose(b Breakdown) []Advice { return core.Diagnose(b) }

// DiagnoseOn is Diagnose with the remedies concretised for a machine:
// every matched waste mode that has a registered tunable gets the tuner's
// parameter choice for that machine appended to its remedy. quick shrinks
// the tuned problem models.
func DiagnoseOn(b Breakdown, m *Machine, quick bool) ([]Advice, error) {
	return core.DiagnoseOn(b, m, quick)
}

// Tunable is one registered remedy parameter: its search space, the
// previously hard-coded default, and a machine-aware model objective.
type Tunable = tune.Tunable

// TuneOptions configures a tunable search (strategy, budget, seed points,
// shared cache); the zero value selects the tunable's natural strategy.
type TuneOptions = tune.Options

// TuneResult is a completed search: the chosen point, the full evaluation
// trace, and the modeled time/energy at the optimum.
type TuneResult = tune.Result

// Tunables returns the registered remedy parameters (matmul block size,
// aggregation size, allreduce algorithm, replication factor, chunk size,
// checkpoint interval). quick shrinks the modeled problems.
func Tunables(quick bool) []Tunable { return tune.Tunables(quick) }

// TunableByID returns the named tunable ("W1-block", "F25-interval", ...;
// the waste-mode id alone also matches), case-insensitively.
func TunableByID(id string, quick bool) (Tunable, error) { return tune.ByID(id, quick) }

// TuneStrategy is a pluggable parameter search (grid, golden-section,
// hill-climbing).
type TuneStrategy = tune.Strategy

// TuneGrid returns the exhaustive-sweep strategy — the oracle every
// smarter search is judged against.
func TuneGrid() TuneStrategy { return tune.Grid{} }

// TuneGolden returns the golden-section strategy for unimodal
// single-axis objectives: O(log range) evaluations.
func TuneGolden() TuneStrategy { return tune.GoldenSection{} }

// TuneCache memoizes objective evaluations across tuning runs; share one
// to make repeated tunes of the same (machine, tunable) free.
type TuneCache = tune.Cache

// NewTuneCache returns an empty evaluation cache.
func NewTuneCache() *TuneCache { return tune.NewCache() }

// StencilResult is the outcome of an integrated stencil campaign.
type StencilResult = core.StencilResult

// StencilCampaign simulates a row-block-decomposed Jacobi stencil on the
// machine with either the wasteful stack (redundant transfers, no overlap,
// global barriers) or the remedied stack. See core.StencilCampaign.
func StencilCampaign(m *Machine, ranks, gridN, steps int, wasteful bool) (StencilResult, error) {
	return core.StencilCampaign(nil, m, ranks, gridN, steps, wasteful)
}

// World is the simulated PGAS runtime: write your own rank programs
// against a machine model and get deterministic time, energy, and a
// diagnosable breakdown. See examples/simulate.
type World = pgas.World

// Rank is the per-process view of a World.
type Rank = pgas.Rank

// Handle is an outstanding split-phase operation.
type Handle = pgas.Handle

// NewWorld creates a simulated world of the given rank count on the
// machine, with the default (topology-free LogGP + NIC serialisation) cost
// model.
func NewWorld(ranks int, m *Machine) *World {
	return pgas.NewWorld(ranks, m, nil, nil)
}

// Comm provides collective operations (barriers, broadcasts, allreduces)
// to a simulated rank.
type Comm = collective.Comm

// NewComm creates a rank's collective context; call once per rank at the
// top of the rank body.
func NewComm(r *Rank) *Comm { return collective.New(r) }

// SortResult is the outcome of a distributed-sort campaign.
type SortResult = core.SortResult

// SortCampaign simulates a distributed sample sort (real keys through the
// simulated network, global order verified) with either the wasteful or
// the remedied communication stack. See core.SortCampaign.
func SortCampaign(m *Machine, ranks, keysPerRank int, wasteful bool) (SortResult, error) {
	return core.SortCampaign(nil, m, ranks, keysPerRank, wasteful)
}

// BFSResult is the outcome of a distributed BFS campaign.
type BFSResult = core.BFSResult

// BFSCampaign simulates a Graph500-style distributed BFS over the graph
// generator's output with either stack; distances are verified against the
// sequential reference. See core.BFSCampaign.
func BFSCampaign(m *Machine, ranks int, g *Graph, wasteful bool) (BFSResult, error) {
	return core.BFSCampaign(nil, m, ranks, g, wasteful)
}

// Graph is an adjacency-list graph (see the RMAT generator).
type Graph = workload.Graph

// RMAT generates a scale-free directed graph with 2^scale vertices and
// about edgeFactor·2^scale edges (the Graph500 workload).
func RMAT(seed uint64, scale, edgeFactor int) *Graph {
	return workload.RMAT(seed, scale, edgeFactor)
}

// Audit runs fn with an instrumented pool of the given width and returns
// the time breakdown plus the diagnosis. It is the quickest way to ask
// "where is my parallel loop wasting time?".
func Audit(workers int, fn func(p *Pool)) (Breakdown, []Advice) {
	rec := trace.NewRecorder(workers)
	pool := sched.NewPool(workers, rec)
	fn(pool)
	b := rec.Breakdown()
	return b, core.Diagnose(b)
}
