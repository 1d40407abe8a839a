// Command tenbench is the repository's end-to-end and per-layer benchmark.
// It runs four named workloads against the public entry points —
// core.Lab.RunAll, pdes.Run, and the serve daemon's handler over httptest —
// checks their outputs in the same run, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one (-trace 1). Per-rep raw values with their
// median, quartiles and count go to a results file under -out, which
// -compare reads:
//
//	tenbench -workload suite -seed 1 -seconds 15
//	tenbench -workload all -seed 1 -out .bench_build/set1
//	tenbench -compare .bench_build/set1/all-seed1.json .bench_build/set2/all-seed1.json
//
// See README.md for the metric table, the layer map and the caveats.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"tenways/internal/lint"
)

// Metric names one measured quantity: its unit, which direction is
// better, and for end-to-end metrics the share of the baseline median by
// which it may worsen before a change counts as a regression. A change
// smaller than MinAbs, in the metric's unit, never counts, whatever its
// share: a few milliseconds of set-up move by more than any share on a
// shared host.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	MinAbs float64
}

// endToEnd are the metrics every workload reports from untraced reps; they
// are the ones BENCHMARK.json lists and the last output line carries.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25, 0.05},
	{"wall_s", "s", "lower", 0.25, 0},
	{"cpu_s", "s", "lower", 0.25, 0},
	{"alloc_mb", "MB", "lower", 0.10, 0},
	{"peak_rss_mb", "MB", "lower", 0.15, 0},
}

// workloadMetrics are end-to-end metrics only some workloads have; they
// go to the results file and -compare, not to the last output line. A
// throughput would only restate wall_s, since every rep does a fixed
// amount of work, so none is listed.
var workloadMetrics = map[string][]Metric{
	"serve-mix": {
		{"hit_p50_us", "us", "lower", 0.20, 0},
		{"hit_p99_us", "us", "lower", 0.25, 0},
		{"miss_p50_ms", "ms", "lower", 0.15, 0},
	},
}

// perLayer are the metrics a traced run reports. The runtime and trace
// ones come from the workload's own traced reps; the rest come from the
// layer probes in probes.go, which every traced run executes, so each
// name means the same measurement on every workload.
var perLayer = []Metric{
	{"trace.overhead", "ratio", "lower", 0, 0},
	{"runtime.gc_cycles", "count", "lower", 0, 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0, 0},
	{"core.busy_ms", "ms", "lower", 0, 0},
	{"core.idle_ms", "ms", "lower", 0, 0},
	{"mem.maccess_per_s", "Maccess/s", "higher", 0, 0},
	{"mem.alloc_b_per_access", "B", "lower", 0, 0},
	{"lint.load_s", "s", "lower", 0, 0},
	{"lint.analyze_s", "s", "lower", 0, 0},
	{"lint.files", "count", "higher", 0, 0},
	{"pdes.events", "count", "higher", 0, 0},
	{"pdes.windows", "count", "lower", 0, 0},
	{"pdes.ladder_respreads", "count", "lower", 0, 0},
	{"pdes.cross_ratio", "ratio", "lower", 0, 0},
	{"pdes.events_per_batch", "count", "higher", 0, 0},
	{"pdes.chunk_allocs", "count", "lower", 0, 0},
	{"pdes.alloc_b_per_event", "B", "lower", 0, 0},
	{"pdes.mallocs_per_run", "count", "lower", 0, 0},
	{"pdes.cpu_s", "s", "lower", 0, 0},
	{"pdes.mevents_per_s", "Mevent/s", "higher", 0, 0},
	{"pdes.serial_mevents_per_s", "Mevent/s", "higher", 0, 0},
	{"pdes.speedup_vs_serial", "ratio", "higher", 0, 0},
	{"serve.hit_ratio", "ratio", "higher", 0, 0},
	{"serve.coalesced", "count", "lower", 0, 0},
	{"serve.run_ms_mean", "ms", "lower", 0, 0},
	{"serve.miss_p90_ms", "ms", "lower", 0, 0},
	{"serve.resp_kb", "KB", "lower", 0, 0},
	{"serve.alloc_kb_per_req", "KB", "lower", 0, 0},
	{"cache.get_ns", "ns", "lower", 0, 0},
	{"cache.put_ns", "ns", "lower", 0, 0},
	{"report.json_us", "us", "lower", 0, 0},
	{"report.ascii_us", "us", "lower", 0, 0},
}

// workloadNames in run order for -workload all.
var workloadNames = []string{"suite", "pdes-wave", "pdes-phold", "serve-mix"}

// setupReps is how many set-up samples a run takes; setup_s is their
// median. A sample is the mean of setupCalls set-ups, so a set-up of a
// millisecond is not judged by single timer readings.
const (
	setupReps  = 9
	setupCalls = 16
)

// env is what every workload and probe shares within one process.
type env struct {
	root   string  // module root: the directory holding tenways' go.mod
	seed   uint64  // workload seed
	budget float64 // seconds of timed reps per phase
	procs  int     // worker goroutines and client connections
	scale  scale
	tracer *tracer // nil in untraced reps
	outDir string
}

// sample is one rep's measurements. In-process reps fill it with measure;
// the suite fills it from its child process.
type sample struct {
	wall, cpu         float64 // seconds
	allocB, mallocs   uint64
	gcCycles          uint32
	gcPauseMS         float64
	rssMB             float64 // the child's peak RSS, or VmHWM since the rep began; NaN if unknown
	attempted, failed int
	extra             map[string]float64 // workload metrics of this rep
}

// bench is one workload, one set of benchmark inputs. prepare builds the
// inputs and is what setup_s times; reference runs once, untimed, to
// produce what later reps are checked against; rep runs one measured
// repetition.
type bench interface {
	prepare(e *env) error
	reference(e *env) error
	rep(e *env) (sample, error)
	minReps() int
	warmups() int
}

// workloadResult is one workload's entry in a results file.
type workloadResult struct {
	MinReps   int                `json:"min_reps"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]Summary `json:"metrics"`
	Layers    map[string]Summary `json:"layers,omitempty"`
	Info      map[string]string  `json:"info,omitempty"`
}

// resultsFile is what -out receives and -compare reads.
type resultsFile struct {
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Traced    bool                       `json:"traced"`
	Procs     int                        `json:"procs"`
	GoVersion string                     `json:"go_version"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func newWorkload(name string) (bench, error) {
	switch name {
	case "suite":
		return &suiteWorkload{}, nil
	case "pdes-wave":
		return &waveWorkload{}, nil
	case "pdes-phold":
		return &pholdWorkload{}, nil
	case "serve-mix":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(workloadNames, ", "))
}

func main() {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(suiteChild(req))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("tenbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "seconds of timed reps per workload (each workload also runs its minimum reps)")
	traced := fs.Int("trace", 0, "1 runs the traced pass and the layer probes and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the results and trace files")
	compare := fs.Bool("compare", false, "compare two results files: tenbench -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: tenbench -compare base.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "tenbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tenbench:", err)
		return 1
	}
	e := &env{root: root, seed: *seed, budget: *seconds, procs: runtime.GOMAXPROCS(0),
		scale: fullScale, outDir: *out}
	rf, err := runAll(context.Background(), e, names, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tenbench:", err)
		return 1
	}
	printHuman(os.Stdout, rf)
	suffix := ""
	if rf.Traced {
		suffix = "-trace"
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d%s.json", *name, *seed, suffix))
	if err := writeJSONFile(path, rf); err != nil {
		fmt.Fprintln(os.Stderr, "tenbench:", err)
		return 1
	}
	fmt.Printf("results: %s\n", path)
	line, ok := resultLine(rf)
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tenbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	if !ok {
		return 1
	}
	return 0
}

// runAll runs each named workload in turn into one results file.
func runAll(ctx context.Context, e *env, names []string, traced bool) (*resultsFile, error) {
	rf := &resultsFile{Seed: e.seed, Seconds: e.budget, Traced: traced, Procs: e.procs,
		GoVersion: runtime.Version(), Workloads: make(map[string]*workloadResult, len(names))}
	for _, name := range names {
		w, err := newWorkload(name)
		if err != nil {
			return nil, err
		}
		res, err := runWorkload(ctx, e, name, w, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rf.Workloads[name] = res
	}
	return rf, nil
}

// runWorkload times set-up, runs the reference and warm-ups, then timed
// reps; a traced run splits its budget between untraced and traced reps
// and ends with the layer probes.
func runWorkload(ctx context.Context, e *env, name string, w bench, traced bool) (*workloadResult, error) {
	res := &workloadResult{MinReps: w.minReps(), Metrics: map[string]Summary{}}
	fail := func(err error) {
		res.Errors = append(res.Errors, err.Error())
		fmt.Fprintf(os.Stderr, "tenbench: %s: %v\n", name, err)
	}
	// failOp records an operation outside the reps, a probe or the trace
	// file, that failed.
	failOp := func(err error) {
		res.Attempted++
		res.Failed++
		fail(err)
	}

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		s, err := setupSample(e, w)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	if err := w.reference(e); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	count := func(s sample, err error) {
		if err != nil && s.failed == 0 {
			s.failed = 1
			s.attempted = max(s.attempted, 1)
		}
		res.Attempted += s.attempted
		res.Failed += s.failed
		if err != nil {
			fail(err)
		}
	}
	for i := 0; i < w.warmups(); i++ {
		count(w.rep(e))
	}

	// A traced run splits its budget between untraced and traced reps, at
	// least two of each: it yields trace.overhead, not end-to-end metrics.
	budget, least := e.budget, w.minReps()
	if traced {
		budget, least = budget/2, 2
	}
	plain := timedReps(ctx, e, w, budget, least, count)
	if !traced {
		res.Metrics = endToEndSummaries(name, plain, setups)
	} else {
		e.tracer = newTracer()
		tracedReps := timedReps(ctx, e, w, budget, least, count)
		layers, err := runProbes(ctx, e)
		if err != nil {
			failOp(err)
		}
		layers["trace.overhead"] = []float64{median(walls(tracedReps)) / median(walls(plain))}
		layers["runtime.gc_cycles"] = pick(tracedReps, func(s sample) float64 { return float64(s.gcCycles) })
		layers["runtime.gc_pause_ms"] = pick(tracedReps, func(s sample) float64 { return s.gcPauseMS })
		res.Layers = make(map[string]Summary, len(perLayer))
		for _, m := range perLayer {
			res.Layers[m.Name] = summarize(m, layers[m.Name])
		}
		if err := e.tracer.write(filepath.Join(e.outDir, fmt.Sprintf("trace-%s-seed%d.json", name, e.seed))); err != nil {
			failOp(err)
		}
		e.tracer = nil
	}
	if c, ok := w.(interface{ info() map[string]string }); ok {
		res.Info = c.info()
	}
	if res.Attempted > 0 {
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}
	return res, nil
}

// setupSample runs prepare setupCalls times and returns the mean seconds
// of one call. The collector is off while prepare runs and collects,
// untimed, before each call, so every call starts from the same swept
// heap: a sample prices the set-up's own work, not where a collection or
// a fresh heap page happened to fall.
func setupSample(e *env, w bench) (float64, error) {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var total time.Duration
	for i := 0; i < setupCalls; i++ {
		runtime.GC()
		t0 := time.Now()
		err := w.prepare(e)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return total.Seconds() / setupCalls, nil
}

// timedReps runs reps until the budget is spent and at least least ran.
func timedReps(ctx context.Context, e *env, w bench, budget float64, least int, count func(sample, error)) []sample {
	var reps []sample
	t0 := time.Now()
	for len(reps) < least || time.Since(t0).Seconds() < budget {
		if ctx.Err() != nil {
			break
		}
		// A rep that runs in this process and whose peak could not be
		// reset reports no peak: the process-wide one is not its own.
		rssErr := resetPeakRSS()
		s, err := w.rep(e)
		if s.rssMB == 0 {
			s.rssMB = math.NaN()
			if rssErr == nil {
				s.rssMB = peakRSSMB()
			}
		}
		count(s, err)
		reps = append(reps, s)
	}
	return reps
}

func walls(reps []sample) []float64 { return pick(reps, func(s sample) float64 { return s.wall }) }

func pick(reps []sample, f func(sample) float64) []float64 {
	out := make([]float64, 0, len(reps))
	for _, s := range reps {
		out = append(out, f(s))
	}
	return out
}

// endToEndSummaries folds the timed reps into the end-to-end metrics.
func endToEndSummaries(name string, reps []sample, setups []float64) map[string]Summary {
	vals := map[string][]float64{
		"setup_s":     setups,
		"wall_s":      walls(reps),
		"cpu_s":       pick(reps, func(s sample) float64 { return s.cpu }),
		"alloc_mb":    pick(reps, func(s sample) float64 { return float64(s.allocB) / (1 << 20) }),
		"peak_rss_mb": pick(reps, func(s sample) float64 { return s.rssMB }),
	}
	for _, s := range reps {
		for k, v := range s.extra {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]Summary, len(vals))
	for _, m := range append(append([]Metric(nil), endToEnd...), workloadMetrics[name]...) {
		out[m.Name] = summarize(m, vals[m.Name])
	}
	return out
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine builds the last output line: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one, each the median
// over its reps. With several workloads the metric names are prefixed by
// the workload.
func resultLine(rf *resultsFile) (contractLine, bool) {
	line := contractLine{Correct: true, Metrics: map[string]lineMetric{}}
	names := make([]string, 0, len(rf.Workloads))
	for n := range rf.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := rf.Workloads[n]
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		if w.Failed > 0 || len(w.Errors) > 0 {
			line.Correct = false
		}
		cat, src := endToEnd, w.Metrics
		if rf.Traced {
			cat, src = perLayer, w.Layers
		}
		for _, m := range cat {
			key := m.Name
			if len(names) > 1 {
				key = n + "/" + m.Name
			}
			line.Metrics[key] = lineMetric{Value: src[m.Name].Median, Unit: m.Unit}
		}
	}
	if line.Attempted == 0 {
		line.Correct = false
	}
	return line, line.Correct
}

// printHuman writes one line per metric, so every metric appears by name
// with its unit before the machine-readable line.
func printHuman(f *os.File, rf *resultsFile) {
	for _, name := range workloadNames {
		w, ok := rf.Workloads[name]
		if !ok {
			continue
		}
		fmt.Fprintf(f, "== %s  seed=%d  attempted=%d failed=%d fail_ratio=%g\n",
			name, rf.Seed, w.Attempted, w.Failed, w.FailRatio)
		src, cat := w.Metrics, append(append([]Metric(nil), endToEnd...), workloadMetrics[name]...)
		if rf.Traced {
			src, cat = w.Layers, perLayer
		}
		for _, m := range cat {
			s := src[m.Name]
			fmt.Fprintf(f, "%-28s %14.6g %-10s q1=%.6g q3=%.6g n=%d\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
		}
		keys := make([]string, 0, len(w.Info))
		for k := range w.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(f, "%-28s %s\n", k, w.Info[k])
		}
	}
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// moduleRoot finds the root of module tenways at or above the working
// directory, passing over this benchmark's own go.mod. Suite children run
// there, because T11 and T13 lint the module they find above their
// working directory and fail without one.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		l, err := lint.NewLoaderAt(dir)
		if err != nil {
			return "", err
		}
		if l.Module() == "tenways" {
			return l.Root(), nil
		}
		dir = filepath.Dir(l.Root())
		if dir == l.Root() {
			return "", fmt.Errorf("no go.mod of module tenways at or above the working directory")
		}
	}
}
