package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"tenways/internal/core"
)

// childEnv carries a suite child's request. tenbench re-executes itself
// with it set, so every suite rep pays what a `wastelab -run all -quick`
// user pays: a fresh process, whose T11 lint scan is not yet memoized.
const childEnv = "TENBENCH_SUITE_CHILD"

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

// childRequest is what the parent asks of a child. Mode "setup" only
// builds the lab; mode "run" runs the suite.
type childRequest struct {
	Mode    string   `json:"mode"`
	Seed    uint64   `json:"seed"`
	IDs     []string `json:"ids,omitempty"`
	Workers int      `json:"workers"`
}

// childReport is what a child prints on its standard output.
type childReport struct {
	Experiments int                `json:"experiments"`
	Failed      []string           `json:"failed,omitempty"`
	Digest      string             `json:"digest"`
	AllocB      uint64             `json:"alloc_b"`
	Mallocs     uint64             `json:"mallocs"`
	GCCycles    uint32             `json:"gc_cycles"`
	GCPauseMS   float64            `json:"gc_pause_ms"`
	WallMS      map[string]float64 `json:"wall_ms,omitempty"`
}

// suiteChild runs in the re-executed process and returns its exit code.
func suiteChild(reqJSON string) int {
	var req childRequest
	if err := json.Unmarshal([]byte(reqJSON), &req); err != nil {
		fmt.Fprintln(os.Stderr, "tenbench child: bad request:", err)
		return 2
	}
	lab := core.NewLab()
	if req.Mode == "setup" {
		for _, id := range req.IDs {
			if _, err := lab.Get(id); err != nil {
				fmt.Fprintln(os.Stderr, "tenbench child:", err)
				return 1
			}
		}
		return 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	results, err := lab.RunAll(context.Background(), core.Config{Quick: true, Seed: req.Seed},
		core.RunOptions{Workers: req.Workers, IDs: req.IDs})
	// With results, the error only aggregates the per-experiment errors,
	// which the loop below reports one by one.
	if err != nil && results == nil {
		fmt.Fprintln(os.Stderr, "tenbench child:", err)
		return 1
	}
	runtime.ReadMemStats(&m1)
	rep := childReport{
		Experiments: len(results),
		AllocB:      m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:     m1.Mallocs - m0.Mallocs,
		GCCycles:    m1.NumGC - m0.NumGC,
		GCPauseMS:   float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		WallMS:      make(map[string]float64, len(results)),
	}
	h := sha256.New()
	for _, r := range results {
		rep.WallMS[r.ID] = float64(r.Wall) / float64(time.Millisecond)
		if r.Err != nil {
			rep.Failed = append(rep.Failed, r.ID)
			fmt.Fprintf(os.Stderr, "tenbench child: %s: %v\n", r.ID, r.Err)
			continue
		}
		if r.Measured {
			continue // host wall-clock cells legitimately differ per run
		}
		h.Write([]byte("== " + r.ID + "\n"))
		if err := r.Output.Render(h); err != nil {
			rep.Failed = append(rep.Failed, r.ID)
		}
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

// suiteWorkload runs core.Lab.RunAll over the quick suite, one fresh
// child process per rep, in the module root.
type suiteWorkload struct {
	digest string // tables digest every rep must reproduce
	walls  map[string][]float64
}

func (w *suiteWorkload) minReps() int { return 3 }
func (w *suiteWorkload) warmups() int { return 1 }

// prepare starts a child that only builds the lab: process start-up plus
// core.NewLab, the cost every CLI invocation pays before its first run.
func (w *suiteWorkload) prepare(e *env) error {
	_, _, err := runChild(e, childRequest{Mode: "setup", IDs: e.scale.suiteIDs})
	return err
}

// reference needs no separate run: the first rep, the warm-up, fixes the
// digest the others are checked against.
func (w *suiteWorkload) reference(e *env) error { return nil }

func (w *suiteWorkload) rep(e *env) (sample, error) {
	req := childRequest{Mode: "run", Seed: e.seed, IDs: e.scale.suiteIDs, Workers: e.procs}
	id, end := e.tracer.begin("core.Lab.RunAll", 0)
	rep, s, err := runChild(e, req)
	end()
	if err != nil {
		return sample{attempted: 1, failed: 1}, err
	}
	s.attempted = rep.Experiments
	s.failed = len(rep.Failed)
	s.allocB, s.mallocs = rep.AllocB, rep.Mallocs
	s.gcCycles, s.gcPauseMS = rep.GCCycles, rep.GCPauseMS
	for _, x := range sortedKeys(rep.WallMS) {
		e.tracer.duration("core.experiment."+x, id, time.Duration(rep.WallMS[x]*float64(time.Millisecond)))
	}
	if w.walls == nil {
		w.walls = map[string][]float64{}
	}
	for x, ms := range rep.WallMS {
		w.walls[x] = append(w.walls[x], ms)
	}
	switch {
	case len(rep.Failed) > 0:
		err = fmt.Errorf("experiments failed: %v", rep.Failed)
	case w.digest == "":
		w.digest = rep.Digest
	case rep.Digest != w.digest:
		s.failed = s.attempted
		err = fmt.Errorf("tables digest %s differs from the first rep's %s", rep.Digest, w.digest)
	}
	return s, err
}

// info reports the tables digest, so two commits can be diffed, and
// the median wall of the experiments on the suite's critical path.
func (w *suiteWorkload) info() map[string]string {
	out := map[string]string{"suite.tables_sha256": w.digest}
	var other float64
	heavy := map[string]bool{}
	for _, x := range []string{"F20", "T11", "F12", "F27", "F30", "T10", "T1", "F28", "T3", "T13"} {
		heavy[x] = true
		if vs, ok := w.walls[x]; ok {
			out["core."+x+".wall_ms"] = strconv.FormatFloat(median(vs), 'f', 1, 64)
		}
	}
	for x, vs := range w.walls {
		if !heavy[x] {
			other += median(vs)
		}
	}
	out["core.other.wall_ms"] = strconv.FormatFloat(other, 'f', 1, 64)
	return out
}

// runChild re-executes tenbench in the module root and measures the child
// as a whole: wall from start to exit, CPU and peak RSS from its rusage.
func runChild(e *env, req childRequest) (childReport, sample, error) {
	var rep childReport
	blob, err := json.Marshal(req)
	if err != nil {
		return rep, sample{}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return rep, sample{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Dir = e.root
	cmd.Env = append(os.Environ(), childEnv+"="+string(blob))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	s := sample{wall: time.Since(t0).Seconds()}
	if ps := cmd.ProcessState; ps != nil {
		s.cpu = ps.UserTime().Seconds() + ps.SystemTime().Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	if err != nil {
		return rep, s, fmt.Errorf("suite child (%s): %w", req.Mode, err)
	}
	if req.Mode == "setup" {
		return rep, s, nil
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return rep, s, fmt.Errorf("suite child report: %w", err)
	}
	return rep, s, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
