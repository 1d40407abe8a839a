package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestMain lets the test binary serve as the suite's child process, as
// the tenbench binary does.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(suiteChild(req))
	}
	os.Exit(m.Run())
}

// benchmarkFile is BENCHMARK.json at the module root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) (benchmarkFile, string) {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	return bf, root
}

// BENCHMARK.json and the command's own catalog must agree.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf, _ := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, tenbench %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d = %s, tenbench has %s", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, tenbench %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if c := endToEnd[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end-to-end %d = %+v, tenbench has %+v", i, m, c)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, tenbench %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if c := perLayer[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer %d = %+v, tenbench has %+v", i, m, c)
		}
	}
}

// All four workloads at toy scale, untraced then traced: every metric
// BENCHMARK.json names must come out with its unit, and nothing may fail.
func TestSmokeAllWorkloads(t *testing.T) {
	bf, root := readBenchmarkFile(t)
	for _, traced := range []bool{false, true} {
		e := &env{root: root, seed: 1, procs: runtime.GOMAXPROCS(0), scale: toyScale, outDir: t.TempDir()}
		rf, err := runAll(context.Background(), e, workloadNames, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		for _, name := range workloadNames {
			w := rf.Workloads[name]
			if w == nil {
				t.Fatalf("traced=%v: no %s result", traced, name)
			}
			if w.Failed != 0 || len(w.Errors) != 0 || w.Attempted == 0 {
				t.Errorf("traced=%v %s: attempted %d failed %d errors %v", traced, name, w.Attempted, w.Failed, w.Errors)
			}
			single := &resultsFile{Traced: traced, Workloads: map[string]*workloadResult{name: w}}
			line, ok := resultLine(single)
			if !ok {
				t.Errorf("traced=%v %s: result line not correct", traced, name)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("traced=%v %s: %d metrics, want %d", traced, name, len(line.Metrics), len(want))
			}
			for n, unit := range want {
				got, ok := line.Metrics[n]
				if !ok || got.Unit != unit {
					t.Errorf("traced=%v %s: metric %s = %+v, want unit %s", traced, name, n, got, unit)
				}
			}
		}
		if !traced {
			if d := rf.Workloads["suite"].Info["suite.tables_sha256"]; len(d) != 64 {
				t.Errorf("suite tables digest %q", d)
			}
		}
	}
}
