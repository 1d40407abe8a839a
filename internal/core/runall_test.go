package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// renderAll renders every non-Measured result keyed by ID — the byte-level
// fingerprint parallel runs must reproduce. The measured experiment (T10)
// reports host wall time, so its cells legitimately differ.
func renderAll(t *testing.T, results []RunResult) map[string]string {
	t.Helper()
	out := make(map[string]string, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if r.Measured {
			continue
		}
		var sb strings.Builder
		if err := r.Output.Render(&sb); err != nil {
			t.Fatal(err)
		}
		out[r.ID] = sb.String()
	}
	return out
}

// TestRunAllParallelMatchesSerial is the suite's parallelism proof: eight
// workers over the full suite must produce byte-identical tables to the
// serial run. Run under -race this also exercises every experiment's
// shared-state discipline.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison is not -short material")
	}
	l := NewLab()
	cfg := Config{Quick: true}
	serial, err := l.RunAll(context.Background(), cfg, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := l.RunAll(context.Background(), cfg, RunOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, serial)
	got := renderAll(t, parallel)
	if len(got) != len(want) {
		t.Fatalf("parallel rendered %d experiments, serial %d", len(got), len(want))
	}
	for id, s := range want {
		if got[id] != s {
			t.Errorf("%s differs between serial and 8-worker runs:\nserial:\n%s\nparallel:\n%s", id, s, got[id])
		}
	}
	// Results must come back in registration order regardless of the
	// completion order.
	ids := l.IDs()
	for i, r := range parallel {
		if r.ID != ids[i] {
			t.Fatalf("results[%d] = %s, want %s", i, r.ID, ids[i])
		}
	}
}

func TestRunAllSubsetAndOrder(t *testing.T) {
	l := NewLab()
	ids := []string{"F3", "T1", "T4"}
	results, err := l.RunAll(context.Background(), Config{Quick: true}, RunOptions{Workers: 2, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	for i, r := range results {
		if r.ID != ids[i] {
			t.Fatalf("results[%d] = %s, want %s (IDs order must be preserved)", i, r.ID, ids[i])
		}
		if r.Wall <= 0 {
			t.Errorf("%s: non-positive wall time", r.ID)
		}
	}
	if _, err := l.RunAll(context.Background(), Config{Quick: true}, RunOptions{IDs: []string{"nope"}}); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestRunAllOnResultStreamsInOrder(t *testing.T) {
	l := NewLab()
	ids := []string{"T4", "T1", "F16"}
	var mu sync.Mutex
	var seen []string
	_, err := l.RunAll(context.Background(), Config{Quick: true}, RunOptions{
		Workers: 3,
		IDs:     ids,
		OnResult: func(r RunResult) {
			mu.Lock()
			seen = append(seen, r.ID)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(seen, ",") != strings.Join(ids, ",") {
		t.Fatalf("OnResult order = %v, want %v", seen, ids)
	}
}

// TestRunAllFailSoft registers a panicking and a failing experiment in a
// private lab and checks the rest of the suite still completes.
func TestRunAllFailSoft(t *testing.T) {
	l := &Lab{byID: make(map[string]Experiment)}
	l.register(Experiment{ID: "OK", Title: "fine", Run: runT1})
	l.register(Experiment{ID: "BOOM", Title: "panics", Run: func(context.Context, Config) (Output, error) {
		panic("kaboom")
	}})
	l.register(Experiment{ID: "OK2", Title: "also fine", Run: runT2})
	results, err := l.RunAll(context.Background(), Config{Quick: true}, RunOptions{Workers: 2})
	if err == nil {
		t.Fatal("expected aggregate error")
	}
	if !strings.Contains(err.Error(), "BOOM") || strings.Contains(err.Error(), "OK2") {
		t.Fatalf("aggregate error should name only the failed id: %v", err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy experiments failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %v", results[1].Err)
	}
}

// TestLabRunContainsPanic: Lab.Run, the one-experiment entry point of the
// public tenways lab, turns a panicking experiment into an error like
// RunAll does, rather than crashing its caller.
func TestLabRunContainsPanic(t *testing.T) {
	l := &Lab{byID: make(map[string]Experiment)}
	l.register(Experiment{ID: "BOOM", Title: "panics", Run: func(context.Context, Config) (Output, error) {
		panic("kaboom")
	}})
	out, err := l.Run("boom", Config{Quick: true})
	if err == nil || !strings.Contains(err.Error(), "BOOM panicked: kaboom") {
		t.Fatalf("Run of a panicking experiment: err = %v, want the panic as an error", err)
	}
	if out.Table != nil || out.Figure != nil {
		t.Fatalf("Run of a panicking experiment returned output %+v", out)
	}
}

func TestRunAllCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := NewLab().RunAll(ctx, Config{Quick: true}, RunOptions{Workers: 4, IDs: []string{"T1", "T2", "T3"}})
	if err == nil {
		t.Fatal("expected aggregate error under a cancelled context")
	}
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("%s ran under a cancelled context", r.ID)
		}
	}
}

// stubLab is a private lab of n experiments E0, E1, … whose Run calls
// run with the experiment's index.
func stubLab(n int, run func(i int) error) *Lab {
	l := &Lab{byID: make(map[string]Experiment)}
	for i := 0; i < n; i++ {
		l.register(Experiment{ID: fmt.Sprintf("E%d", i), Title: "stub", Run: func(context.Context, Config) (Output, error) {
			return Output{}, run(i)
		}})
	}
	return l
}

// TestRunAllCancelMidRun cancels the context from inside the second of four
// experiments: at width 1 the two after it must not run and must carry
// context.Canceled.
func TestRunAllCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran [4]bool
	l := stubLab(4, func(i int) error {
		ran[i] = true
		if i == 1 {
			cancel()
		}
		return nil
	})
	results, err := l.RunAll(ctx, Config{Quick: true}, RunOptions{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "E2, E3") {
		t.Fatalf("aggregate error = %v, want one naming E2, E3", err)
	}
	for i, r := range results {
		if i < 2 {
			if r.Err != nil || !ran[i] {
				t.Errorf("%s: ran %v, err %v; want it run without error", r.ID, ran[i], r.Err)
			}
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.ID, r.Err)
		}
		if ran[i] {
			t.Errorf("%s ran after the context was cancelled", r.ID)
		}
	}
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestRunAllOnResultStreamsOnCaller pins OnResult's contract at width 3: E2
// finishes first and E0 only after it, yet results arrive in IDs order, each
// on the goroutine that called RunAll, and streamed: E1 finishes only once
// E0 has been delivered.
func TestRunAllOnResultStreamsOnCaller(t *testing.T) {
	finished := make(chan struct{})
	delivered := make(chan struct{})
	wait := func(ch chan struct{}, what string) error {
		select {
		case <-ch:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("timed out waiting for " + what)
		}
	}
	l := stubLab(3, func(i int) error {
		switch i {
		case 0:
			return wait(finished, "E2 to finish")
		case 1:
			return wait(delivered, "E0's delivery")
		}
		close(finished)
		return nil
	})
	caller := goid()
	var seen []string
	results, err := l.RunAll(context.Background(), Config{Quick: true}, RunOptions{
		Workers: 3,
		OnResult: func(r RunResult) {
			if id := goid(); id != caller {
				t.Errorf("OnResult(%s) on goroutine %s, RunAll called on %s", r.ID, id, caller)
			}
			if r.ID == "E0" {
				close(delivered)
			}
			seen = append(seen, r.ID)
		},
	})
	if err != nil {
		t.Fatalf("%v (results %+v)", err, results)
	}
	if got := strings.Join(seen, ","); got != "E0,E1,E2" {
		t.Fatalf("OnResult order = %s, want E0,E1,E2", got)
	}
}

// TestRunAllLeaksNoGoroutines runs clean, failing and cancelled suites at
// several widths and checks that no goroutine outlives RunAll.
func TestRunAllLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	l := stubLab(6, func(i int) error {
		switch i % 3 {
		case 1:
			panic("stub panic")
		case 2:
			return errors.New("stub failure")
		}
		return nil
	})
	for _, workers := range []int{1, 2, 4, 8} {
		if _, err := l.RunAll(context.Background(), Config{Quick: true}, RunOptions{Workers: workers, OnResult: func(RunResult) {}}); err == nil {
			t.Fatalf("%d workers: want an aggregate error", workers)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := l.RunAll(ctx, Config{Quick: true}, RunOptions{Workers: workers}); err == nil {
			t.Fatalf("%d workers: want an error under a cancelled context", workers)
		}
	}
	// A pool worker signals its WaitGroup just before its goroutine exits,
	// so allow the scheduler a moment to retire it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	// Only a rise is a leak: a goroutine of an earlier test may retire
	// during the runs and leave fewer than before.
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the runs, %d before", n, before)
	}
}

// fuzzIDs are quick experiments of a few milliseconds each, so that one
// fuzz input stays well under a second.
var fuzzIDs = []string{"F4", "F6", "F15", "F18", "F21", "F22", "F23", "F24", "F25", "T6", "T8"}

// FuzzRunAllDeterminism is the lab's determinism contract searched by the
// fuzzer: any subset of fuzzIDs (bit i of mask selects fuzzIDs[i]) at any
// RunAll width from 1 to 4 and any seed renders byte-identical tables to
// the 1-worker run.
func FuzzRunAllDeterminism(f *testing.F) {
	f.Add(uint16(1<<len(fuzzIDs)-1), uint8(3), uint64(1))
	l := NewLab()
	f.Fuzz(func(t *testing.T, mask uint16, width uint8, seed uint64) {
		ids := make([]string, 0, len(fuzzIDs))
		for i, id := range fuzzIDs {
			if mask&(1<<i) != 0 {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			t.Skip("empty subset")
		}
		cfg := Config{Quick: true, Seed: seed}
		render := func(workers int) string {
			results, err := l.RunAll(context.Background(), cfg, RunOptions{Workers: workers, IDs: ids})
			if err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
			var sb strings.Builder
			for _, r := range results {
				fmt.Fprintf(&sb, "== %s\n", r.ID)
				if err := r.Output.Render(&sb); err != nil {
					t.Fatal(err)
				}
			}
			return sb.String()
		}
		workers := 1 + int(width%4)
		if got, want := render(workers), render(1); got != want {
			t.Fatalf("%v at seed %d: %d workers render differently from 1:\n%s\nwant:\n%s", ids, seed, workers, got, want)
		}
	})
}

func TestLabReportRoundTrip(t *testing.T) {
	l := NewLab()
	cfg := Config{Quick: true}
	results, err := l.RunAll(context.Background(), cfg, RunOptions{Workers: 2, IDs: []string{"T1", "F16"}})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewLabReport(cfg, 2, results)
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back LabReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Machine != cfg.machine().Name || back.Workers != 2 || len(back.Results) != 2 {
		t.Fatalf("round trip lost identity: %+v", back)
	}
	for i, rec := range back.Results {
		if rec.ID != results[i].ID {
			t.Fatalf("record %d id = %s, want %s", i, rec.ID, results[i].ID)
		}
		if rec.WallMS <= 0 {
			t.Fatalf("%s: wall_ms = %g", rec.ID, rec.WallMS)
		}
	}
	if rt := back.Results[0].Table; rt == nil || len(rt.Rows) == 0 {
		t.Fatal("T1 table lost in round trip")
	}
	if fg := back.Results[1].Figure; fg == nil || len(fg.Series) == 0 {
		t.Fatal("F16 figure lost in round trip")
	}
	if ids := back.FailedIDs(); len(ids) != 0 {
		t.Fatalf("unexpected failures: %v", ids)
	}
	// The report records the worker count RunAll used, not the one asked for.
	for _, tc := range []struct {
		workers int
		results []RunResult
	}{{0, results}, {8, results[:1]}} {
		if got := NewLabReport(cfg, tc.workers, tc.results).Workers; got != 1 {
			t.Fatalf("%d workers over %d experiments: report says %d, want 1", tc.workers, len(tc.results), got)
		}
	}
}
