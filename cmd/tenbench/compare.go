package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one compared row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing" // absent from a side, or fewer reps than required
)

// row is one workload × end-to-end metric of a comparison.
type row struct {
	Workload, Metric string
	Base, New        Summary
	Change           float64 // relative worsening of the median: > 0 is worse
	Bound            float64
	Verdict          string
}

// compareFiles prints the comparison of two results files and returns the
// exit code: 2 when the comparison cannot be made (a workload or metric
// missing from either side, or fewer reps than the workload requires),
// else 1 on any worse row or any rise in fail_ratio, else 0.
func compareFiles(w io.Writer, basePath, newPath string) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tenbench:", err)
		return 2
	}
	next, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tenbench:", err)
		return 2
	}
	rows, failRise := compareResults(base, next)
	return printComparison(w, rows, failRise)
}

func readResults(path string) (*resultsFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(blob, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads", path)
	}
	if rf.Traced {
		return nil, fmt.Errorf("%s: a traced run carries no end-to-end metrics", path)
	}
	return &rf, nil
}

// compareResults builds one row per workload and end-to-end metric over
// the union of both files' workloads, and lists the workloads whose
// fail_ratio rose.
func compareResults(base, next *resultsFile) (rows []row, failRise []string) {
	seen := map[string]bool{}
	names := make([]string, 0, len(base.Workloads)+len(next.Workloads))
	for _, rf := range []*resultsFile{base, next} {
		for _, n := range sortedKeys(rf.Workloads) {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	for _, n := range names {
		bw, nw := base.Workloads[n], next.Workloads[n]
		if bw == nil || nw == nil {
			rows = append(rows, row{Workload: n, Metric: "*", Verdict: verdictMissing})
			continue
		}
		if nw.FailRatio > bw.FailRatio {
			failRise = append(failRise, n)
		}
		for _, m := range append(append([]Metric(nil), endToEnd...), workloadMetrics[n]...) {
			need := bw.MinReps
			if m.Name == "setup_s" {
				need = setupReps
			}
			bs, bok := bw.Metrics[m.Name]
			ns, nok := nw.Metrics[m.Name]
			r := row{Workload: n, Metric: m.Name, Base: bs, New: ns, Bound: m.Bound}
			if !bok || !nok || bs.N < need || ns.N < need || bs.Median == 0 {
				r.Verdict = verdictMissing
				rows = append(rows, r)
				continue
			}
			r.Change, r.Verdict = verdict(m, bs, ns)
			rows = append(rows, r)
		}
	}
	return rows, failRise
}

// verdict judges one metric. The change is the relative worsening of the
// median. A median that moved by less than the metric's MinAbs is the
// same, whatever the share. A side whose quartile spread exceeds the bound
// cannot resolve a change of that size, so the row is unresolved — unless
// every run of one side beats every run of the other, which no spread
// explains away.
func verdict(m Metric, base, next Summary) (float64, string) {
	change := (next.Median - base.Median) / base.Median
	if m.Better == "higher" {
		change = -change
	}
	if math.Abs(next.Median-base.Median) < m.MinAbs {
		return change, verdictSame
	}
	if (base.IQRShare() > m.Bound || next.IQRShare() > m.Bound) && !separated(base, next) {
		return change, verdictUnresolved
	}
	switch {
	case change > m.Bound:
		return change, verdictWorse
	case change < -m.Bound:
		return change, verdictBetter
	}
	return change, verdictSame
}

// separated reports whether every run of one side lies beyond every run
// of the other; the change's sign says which side is ahead.
func separated(a, b Summary) bool {
	return maxOf(a.Values) < minOf(b.Values) || maxOf(b.Values) < minOf(a.Values)
}

func minOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		m = min(m, v)
	}
	return m
}

func maxOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		m = max(m, v)
	}
	return m
}

// printComparison writes the rows, the raw reps of every unresolved row,
// and returns the exit code.
func printComparison(w io.Writer, rows []row, failRise []string) int {
	code := 0
	fmt.Fprintf(w, "%-11s %-13s %-9s %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "unit", "base median [q1, q3] n", "new median [q1, q3] n", "change", "bound", "verdict")
	for _, r := range rows {
		if r.Verdict == verdictMissing {
			fmt.Fprintf(w, "%-11s %-13s %-9s %-34s %-34s %8s %6s  %s\n", r.Workload, r.Metric, r.Base.Unit,
				describe(r.Base), describe(r.New), "-", "-", r.Verdict)
			code = 2
			continue
		}
		fmt.Fprintf(w, "%-11s %-13s %-9s %-34s %-34s %+7.1f%% %5.0f%%  %s\n", r.Workload, r.Metric, r.Base.Unit,
			describe(r.Base), describe(r.New), 100*r.Change, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictUnresolved {
			fmt.Fprintf(w, "    base reps: %v\n    new reps:  %v\n", r.Base.Values, r.New.Values)
		}
		if r.Verdict == verdictWorse && code == 0 {
			code = 1
		}
	}
	for _, n := range failRise {
		fmt.Fprintf(w, "%-11s fail_ratio rose\n", n)
		if code == 0 {
			code = 1
		}
	}
	return code
}

func describe(s Summary) string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}
