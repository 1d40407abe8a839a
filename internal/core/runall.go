package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"tenways/internal/obs"
	"tenways/internal/report"
	"tenways/internal/sched"
)

// RunOptions parameterises a parallel suite run.
type RunOptions struct {
	// Workers bounds the experiments running concurrently; <= 0 runs
	// serially (one worker). Experiments are deterministic simulations, so
	// any worker count produces identical tables — only wall time changes.
	Workers int
	// IDs selects the experiments to run, in the given order; nil or empty
	// selects the full suite in registration order.
	IDs []string
	// OnResult, when non-nil, is called once per experiment in IDs order
	// (not completion order) as results become available, from the
	// goroutine that called RunAll. Use it to stream output while later
	// experiments still run.
	OnResult func(RunResult)
}

// RunResult is one experiment's outcome under RunAll.
type RunResult struct {
	ID       string
	Title    string
	Measured bool // see Experiment.Measured
	Output   Output
	Err      error
	Wall     time.Duration
	// Metrics is the experiment's own registry snapshot: every run records
	// at least the lab.* instruments, plus whatever subsystems it touched
	// (pdes.*, pgas.*, collective.*, chaos.*, tune.*, ...).
	Metrics obs.Snapshot
}

// RunAll executes the selected experiments on a sched.Pool, which deals
// them out in IDs order, and returns their results in IDs order regardless
// of completion order.
//
// Each experiment gets a fresh obs.Registry threaded through Config.Obs,
// so its metrics snapshot is attributable even while other experiments run
// concurrently. Failures are soft: a panicking or failing experiment is
// recorded in its RunResult and the rest of the suite still runs; the
// returned error is an aggregate naming the failed IDs (nil when all
// succeeded). Cancelling ctx stops new experiments from starting and marks
// unstarted ones with the context error.
func (l *Lab) RunAll(ctx context.Context, cfg Config, opts RunOptions) ([]RunResult, error) {
	ids := opts.IDs
	if len(ids) == 0 {
		ids = l.IDs()
	}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, err := l.Get(id)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	pool := sched.NewPool(resolveWorkers(opts.Workers, len(exps)), nil)

	results := make([]RunResult, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	// Worker 0 of a two-wide split is the calling goroutine (see
	// sched.Pool): it delivers results in IDs order as they land, while
	// worker 1 deals the experiments out on the pool in IDs order.
	sched.NewPool(2, nil).ForEachStatic(2, func(half int) {
		if half == 1 {
			pool.ForEachChunked(len(exps), 1, func(i int) {
				results[i] = runOne(ctx, exps[i], cfg)
				close(done[i])
			})
			return
		}
		for i := range exps {
			<-done[i]
			if opts.OnResult != nil {
				opts.OnResult(results[i])
			}
		}
	})

	//lint:ignore prealloc failures are the rare case; preallocating for the usual empty list would waste
	var failed []string
	for _, r := range results {
		if r.Err != nil {
			failed = append(failed, r.ID)
		}
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("core: %d of %d experiments failed: %s",
			len(failed), len(results), strings.Join(failed, ", "))
	}
	return results, nil
}

// resolveWorkers is the worker count RunAll uses for a requested count and
// n experiments: at least one, at most n.
func resolveWorkers(requested, n int) int {
	return min(max(requested, 1), n)
}

// runOne executes a single experiment with its own metrics registry,
// converting panics into errors so one broken experiment cannot take down
// a parallel suite run.
func runOne(ctx context.Context, e Experiment, cfg Config) RunResult {
	res := RunResult{ID: e.ID, Title: e.Title, Measured: e.Measured}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	start := time.Now()
	if err := ctx.Err(); err != nil {
		res.Err = err
	} else {
		res.Output, res.Err = runRecovered(ctx, e, cfg)
	}
	res.Wall = time.Since(start)
	reg.Counter("lab.runs").Inc()
	if res.Err != nil {
		reg.Counter("lab.failures").Inc()
	}
	res.Metrics = reg.Snapshot()
	return res
}

func runRecovered(ctx context.Context, e Experiment, cfg Config) (out Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = Output{}
			err = fmt.Errorf("core: %s panicked: %v", e.ID, r)
		}
	}()
	return e.Run(ctx, cfg)
}

// RunRecord is one experiment's outcome in a LabReport, shaped for JSON.
type RunRecord struct {
	ID       string         `json:"id"`
	Title    string         `json:"title"`
	Measured bool           `json:"measured,omitempty"`
	WallMS   float64        `json:"wall_ms"`
	Error    string         `json:"error,omitempty"`
	Table    *report.Table  `json:"table,omitempty"`
	Figure   *report.Figure `json:"figure,omitempty"`
	Metrics  obs.Snapshot   `json:"metrics"`
}

// LabReport is a machine-readable record of one suite run, as wastelab
// -json emits it.
type LabReport struct {
	Machine string      `json:"machine"`
	Quick   bool        `json:"quick,omitempty"`
	Seed    uint64      `json:"seed,omitempty"`
	Workers int         `json:"workers"`
	Results []RunRecord `json:"results"`
}

// NewLabReport assembles the JSON report for a completed RunAll. workers is
// the count passed in RunOptions; the report records the count RunAll
// resolved it to.
func NewLabReport(cfg Config, workers int, results []RunResult) *LabReport {
	rep := &LabReport{
		Machine: cfg.machine().Name,
		Quick:   cfg.Quick,
		Seed:    cfg.Seed,
		Workers: resolveWorkers(workers, len(results)),
		Results: make([]RunRecord, 0, len(results)),
	}
	for _, r := range results {
		rec := RunRecord{
			ID:       r.ID,
			Title:    r.Title,
			Measured: r.Measured,
			WallMS:   float64(r.Wall) / float64(time.Millisecond),
			Table:    r.Output.Table,
			Figure:   r.Output.Figure,
			Metrics:  r.Metrics,
		}
		if r.Err != nil {
			rec.Error = r.Err.Error()
		}
		rep.Results = append(rep.Results, rec)
	}
	return rep
}

// FailedIDs returns the IDs of the failed records, sorted.
func (r *LabReport) FailedIDs() []string {
	//lint:ignore prealloc failures are the rare case; preallocating for the usual empty list would waste
	var out []string
	for _, rec := range r.Results {
		if rec.Error != "" {
			out = append(out, rec.ID)
		}
	}
	sort.Strings(out)
	return out
}
