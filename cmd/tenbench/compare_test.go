package main

import (
	"io"
	"path/filepath"
	"testing"
)

// resultsWith builds a one-workload results file whose every end-to-end
// metric has the given reps, with wall_s overridden by wall when set.
func resultsWith(reps []float64, wall []float64, failRatio float64) *resultsFile {
	w := &workloadResult{MinReps: 3, FailRatio: failRatio, Metrics: map[string]Summary{}}
	setups := append(append([]float64(nil), reps...), reps...)[:setupReps]
	for _, m := range endToEnd {
		vs := reps
		switch m.Name {
		case "setup_s":
			vs = setups
		case "wall_s":
			if wall != nil {
				vs = wall
			}
		}
		w.Metrics[m.Name] = summarize(m, vs)
	}
	return &resultsFile{Workloads: map[string]*workloadResult{"suite": w}}
}

func wallRow(t *testing.T, rows []row) row {
	t.Helper()
	for _, r := range rows {
		if r.Metric == "wall_s" {
			return r
		}
	}
	t.Fatal("no wall_s row")
	return row{}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name    string
		newWall []float64
		verdict string
		code    int
	}{
		{"same", []float64{10.2, 10.1, 10.3, 10.2, 10.25}, verdictSame, 0},
		{"worse", []float64{14, 14.1, 13.9, 14, 14.05}, verdictWorse, 1},
		{"better", []float64{6, 6.1, 5.9, 6, 6.05}, verdictBetter, 0},
		// The new side's quartiles span more than the 25% bound, and its
		// runs overlap the base's: the change cannot be resolved.
		{"unresolved", []float64{7, 10, 13, 9, 12}, verdictUnresolved, 0},
		// As wide, but every new run is slower than every base run.
		{"separated", []float64{12, 16, 20, 13, 19}, verdictWorse, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows, rise := compareResults(resultsWith(steady, nil, 0), resultsWith(steady, c.newWall, 0))
			if r := wallRow(t, rows); r.Verdict != c.verdict {
				t.Errorf("verdict = %s (change %+.3f), want %s", r.Verdict, r.Change, c.verdict)
			}
			if code := printComparison(io.Discard, rows, rise); code != c.code {
				t.Errorf("exit code = %d, want %d", code, c.code)
			}
		})
	}
}

// A higher-is-better metric worsens when it falls.
func TestCompareHigherIsBetter(t *testing.T) {
	m := Metric{Name: "events", Unit: "Mevent/s", Better: "higher", Bound: 0.15}
	base := summarize(m, []float64{100, 101, 99})
	if _, v := verdict(m, base, summarize(m, []float64{70, 71, 69})); v != verdictWorse {
		t.Errorf("falling throughput = %s, want worse", v)
	}
	if _, v := verdict(m, base, summarize(m, []float64{130, 131, 129})); v != verdictBetter {
		t.Errorf("rising throughput = %s, want better", v)
	}
}

// A millisecond-scale set-up that grows by 60 %, with tight reps on both
// sides, stays under setup_s's 0.05 s floor: it is the same, not worse.
// Past the floor the share decides again.
func TestCompareSetupFloor(t *testing.T) {
	m := endToEnd[0]
	if m.Name != "setup_s" || m.MinAbs != 0.05 {
		t.Fatalf("endToEnd[0] = %+v, want setup_s with a 0.05 s floor", m)
	}
	base := summarize(m, []float64{0.0020, 0.0021, 0.0020, 0.0019, 0.0020, 0.0020, 0.0021})
	slower := summarize(m, []float64{0.0032, 0.0033, 0.0032, 0.0031, 0.0032, 0.0032, 0.0033})
	if change, v := verdict(m, base, slower); v != verdictSame || change < 0.5 {
		t.Errorf("ms-scale set-up +%.0f%% = %s, want same", 100*change, v)
	}
	bigBase := summarize(m, []float64{0.20, 0.21, 0.20, 0.19, 0.20, 0.20, 0.21})
	bigSlower := summarize(m, []float64{0.32, 0.33, 0.32, 0.31, 0.32, 0.32, 0.33})
	if _, v := verdict(m, bigBase, bigSlower); v != verdictWorse {
		t.Errorf("0.2 s set-up +60%% = %s, want worse", v)
	}
}

// A comparison with nothing to compare fails closed with exit code 2.
func TestCompareFailsClosed(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name string
		edit func(base, next *resultsFile)
	}{
		{"missing workload", func(_, next *resultsFile) {
			next.Workloads["pdes-wave"] = next.Workloads["suite"]
			delete(next.Workloads, "suite")
		}},
		{"missing metric", func(_, next *resultsFile) { delete(next.Workloads["suite"].Metrics, "cpu_s") }},
		{"too few reps", func(_, next *resultsFile) {
			m := endToEnd[1]
			next.Workloads["suite"].Metrics[m.Name] = summarize(m, []float64{10, 10})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base, next := resultsWith(steady, nil, 0), resultsWith(steady, nil, 0)
			c.edit(base, next)
			rows, rise := compareResults(base, next)
			if code := printComparison(io.Discard, rows, rise); code != 2 {
				t.Errorf("exit code = %d, want 2", code)
			}
		})
	}
}

func TestCompareFailRatioRise(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	rows, rise := compareResults(resultsWith(steady, nil, 0), resultsWith(steady, nil, 0.01))
	if code := printComparison(io.Discard, rows, rise); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSONFile(a, resultsWith(steady, nil, 0)); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONFile(b, resultsWith(steady, nil, 0)); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(io.Discard, a, b); code != 0 {
		t.Errorf("identical files: exit code %d, want 0", code)
	}
	if code := compareFiles(io.Discard, a, filepath.Join(dir, "absent.json")); code != 2 {
		t.Errorf("absent file: exit code %d, want 2", code)
	}
}
