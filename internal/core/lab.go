package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"tenways/internal/chaos"
	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/report"
)

// Config parameterises an experiment run.
type Config struct {
	// Machine is the modeled machine; nil selects Petascale2009.
	Machine *machine.Spec
	// Quick shrinks sweeps for fast runs (tests, -short benches).
	Quick bool
	// Seed drives the chaos experiments' injector streams; 0 selects
	// chaos.DefaultSeed. Two runs at the same seed produce identical
	// tables.
	Seed uint64
	// Obs receives the run's subsystem metrics (pdes engine events,
	// collective bytes, tuner evaluations, ...); nil records nothing.
	// RunOne gives every run its own, so per-experiment snapshots stay
	// attributable under parallel execution.
	Obs *obs.Registry
}

func (c Config) machine() *machine.Spec {
	if c.Machine != nil {
		return c.Machine
	}
	return machine.Petascale2009()
}

func (c Config) seed() uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return chaos.DefaultSeed
}

// Output is what an experiment produces: a table, a figure, or both.
type Output struct {
	Table  *report.Table
	Figure *report.Figure
}

// Render writes the output for terminals (the ASCII renderer).
func (o Output) Render(w io.Writer) error {
	return o.RenderWith(w, report.ASCII{})
}

// RenderWith writes the output through the given renderer: the table
// first, then the figure, separated by a blank line.
func (o Output) RenderWith(w io.Writer, r report.Renderer) error {
	if o.Table != nil {
		if err := r.Table(w, o.Table); err != nil {
			return err
		}
	}
	if o.Figure != nil {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := r.Figure(w, o.Figure); err != nil {
			return err
		}
	}
	return nil
}

// Experiment regenerates one table or figure of the evaluation suite.
type Experiment struct {
	ID    string // "T1".."T13", "F1".."F28"
	Title string
	// Measured marks experiments whose cells come from host wall-clock
	// measurement (T10) rather than the deterministic simulation:
	// their numbers legitimately vary between runs, so byte-identity
	// checks and reproducibility tests must skip them.
	Measured bool
	Run      func(ctx context.Context, cfg Config) (Output, error)
}

// Lab is the experiment registry.
type Lab struct {
	byID  map[string]Experiment
	order []string
}

// NewLab returns a lab with the full evaluation suite registered.
func NewLab() *Lab {
	l := &Lab{byID: make(map[string]Experiment)}
	for _, e := range allExperiments() {
		l.register(e)
	}
	return l
}

func (l *Lab) register(e Experiment) {
	if _, dup := l.byID[e.ID]; dup {
		panic(fmt.Sprintf("core: duplicate experiment %q", e.ID))
	}
	l.byID[e.ID] = e
	l.order = append(l.order, e.ID)
}

// Experiments returns all experiments in registration order.
func (l *Lab) Experiments() []Experiment {
	out := make([]Experiment, 0, len(l.order))
	for _, id := range l.order {
		out = append(out, l.byID[id])
	}
	return out
}

// IDs returns the registered experiment IDs in registration order.
func (l *Lab) IDs() []string {
	return append([]string(nil), l.order...)
}

// Get returns the experiment with the given ID, matched
// case-insensitively ("t8" and "T8" name the same experiment).
func (l *Lab) Get(id string) (Experiment, error) {
	if e, ok := l.byID[id]; ok {
		return e, nil
	}
	for _, known := range l.order {
		if strings.EqualFold(known, id) {
			return l.byID[known], nil
		}
	}
	known := append([]string(nil), l.order...)
	sort.Strings(known)
	return Experiment{}, fmt.Errorf("core: unknown experiment %q (known: %v)", id, known)
}

// Run runs the experiment with the given ID through RunOne under a
// background context, so a panicking experiment returns an error. The run
// records into its own registry in place of cfg.Obs; RunAll returns that
// snapshot.
func (l *Lab) Run(id string, cfg Config) (Output, error) {
	e, err := l.Get(id)
	if err != nil {
		return Output{}, err
	}
	res := RunOne(context.Background(), e, cfg)
	return res.Output, res.Err
}

func allExperiments() []Experiment {
	return []Experiment{
		{ID: "T1", Title: "The ten ways: time & energy waste factors", Run: runT1},
		{ID: "T2", Title: "Machine balance across presets", Run: runT2},
		{ID: "T3", Title: "Collective algorithms: modeled latency", Run: runT3},
		{ID: "T4", Title: "Kernel arithmetic intensity and roofline bounds", Run: runT4},
		{ID: "T5", Title: "Science per joule: stencil steps/J across machines", Run: runT5},
		{ID: "F1", Title: "W1: matmul DRAM traffic and time vs block size", Run: runF1},
		{ID: "F2", Title: "W2: wire traffic vs redundant-transfer factor", Run: runF2},
		{ID: "F3", Title: "W3: barrier-per-step vs neighbour sync vs ranks", Run: runF3},
		{ID: "F4", Title: "W4: efficiency vs skew, static vs dynamic", Run: runF4},
		{ID: "F5", Title: "W5: throughput vs cores, lock vs sharded", Run: runF5},
		{ID: "F6", Title: "W6: overlap win vs compute/communication ratio", Run: runF6},
		{ID: "F7", Title: "W7: transfer time vs message size (aggregation)", Run: runF7},
		{ID: "F8", Title: "W8: rooflines of all machine presets", Run: runF8},
		{ID: "F9", Title: "W9: false-sharing cost vs counter stride", Run: runF9},
		{ID: "F10", Title: "W10: energy vs idle fraction, spin vs block", Run: runF10},
		{ID: "F11", Title: "Integrated strong scaling, wasteful vs remedied", Run: runF11},
		{ID: "F12", Title: "Integrated weak scaling, wasteful vs remedied", Run: runF12},
		{ID: "F13", Title: "Communication-avoiding matmul vs replication", Run: runF13},
		{ID: "F14", Title: "Allreduce algorithms vs rank count", Run: runF14},
		{ID: "T6", Title: "Collective schedules under topology contention", Run: runT6},
		{ID: "T7", Title: "Karp–Flatt serial-fraction analysis of the stencil", Run: runT7},
		{ID: "F15", Title: "DAG speedup vs workers against the work/span bound", Run: runF15},
		{ID: "F16", Title: "Speedup laws: Amdahl vs Gustafson", Run: runF16},
		{ID: "F17", Title: "Prefetcher ablation: latency hidden, energy not", Run: runF17},
		{ID: "F18", Title: "Distributed sample sort, wasteful vs remedied stack", Run: runF18},
		{ID: "F19", Title: "Distributed CG: standard vs communication-avoiding s-step", Run: runF19},
		{ID: "F20", Title: "NUMA placement: first-touch vs interleave vs serial-init", Run: runF20},
		{ID: "F21", Title: "Distributed BFS (Graph500-style), wasteful vs remedied stack", Run: runF21},
		{ID: "T8", Title: "Noise amplification by synchronisation stack", Run: runT8},
		{ID: "F22", Title: "Idle-wave propagation speed vs neighbour offsets and topology", Run: runF22},
		{ID: "F23", Title: "Idle-wave decay under noise-absorbing synchronisation", Run: runF23},
		{ID: "F24", Title: "Straggler mitigation: static vs over-decomposed self-scheduling", Run: runF24},
		{ID: "F25", Title: "Checkpoint/replay under rank failure: interval trade-off", Run: runF25},
		{ID: "T9", Title: "Autotuned remedy parameters: tuned vs default vs oracle", Run: runT9},
		{ID: "F26", Title: "Tuner convergence: best-so-far cost vs evaluations", Run: runF26},
		{ID: "T10", Title: "Lab self-profile: per-experiment work metrics", Run: runT10, Measured: true},
		{ID: "T11", Title: "wastevet self-audit: rule-to-waste-mode map and finding counts", Run: runT11},
		{ID: "T12", Title: "wastelabd self-measurement: request-path policies vs daemon waste modes", Run: runT12},
		{ID: "F28", Title: "Idle-wave propagation at scale: measured vs analytic wave speed (partitioned PDES)", Run: runF28},
		{ID: "T13", Title: "wastevet autofix coverage: per-package findings at-intro vs post-fix", Run: runT13},
	}
}
