package core

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tenways/internal/chaos"
	"tenways/internal/collective"
	"tenways/internal/machine"
	"tenways/internal/mem"
	"tenways/internal/pgas"
	"tenways/internal/trace"
	"tenways/internal/tune"
	"tenways/internal/waste"
	"tenways/internal/workload"
)

func TestLabHasFullSuite(t *testing.T) {
	l := NewLab()
	want := []string{"T1", "T2", "T3", "T4", "T5",
		"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10",
		"F11", "F12", "F13", "F14", "T6", "T7", "F15", "F16", "F17", "F18", "F19", "F20", "F21",
		"T8", "F22", "F23", "F24", "F25", "T9", "F26", "T10", "T11", "T12", "F28", "T13"}
	ids := l.IDs()
	if len(ids) != len(want) {
		t.Fatalf("got %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids[%d] = %s, want %s", i, ids[i], id)
		}
	}
	if _, err := l.Get("T1"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Get("X9"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

// TestT10SweepShape: quick T10 tabulates the profile sub-suite's 1-worker
// run, one row per experiment plus its total, and plots a speedup curve
// over the worker widths 1, 2, 4, … up to max(2, GOMAXPROCS) that starts at
// exactly (1, 1). It runs at GOMAXPROCS 16, wider than the sub-suite, where
// no width may exceed the experiment count: RunAll starts no more workers
// than experiments, so a wider point would plot a 7-worker run as 8 or 16.
func TestT10SweepShape(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	out, err := NewLab().Run("T10", Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Table == nil || out.Figure == nil {
		t.Fatalf("T10 should return a table and a figure: %+v", out)
	}
	rows := out.Table.Rows
	if len(rows) != len(profileIDs)+1 {
		t.Fatalf("T10 has %d rows, want %d experiments plus the total", len(rows), len(profileIDs))
	}
	for i, id := range profileIDs {
		if rows[i][0] != id {
			t.Errorf("row %d is %s, want %s", i, rows[i][0], id)
		}
	}
	if got := rows[len(profileIDs)][0]; got != "total (1 worker)" {
		t.Errorf("footer is %q", got)
	}
	f := out.Figure
	var want []float64
	for wk := 1; wk <= min(max(2, runtime.GOMAXPROCS(0)), len(profileIDs)); wk *= 2 {
		want = append(want, float64(wk))
	}
	if !slices.Equal(f.Xs, want) {
		t.Errorf("widths %v, want %v", f.Xs, want)
	}
	for _, x := range f.Xs {
		if x > float64(len(profileIDs)) {
			t.Errorf("width %g exceeds the %d-experiment sub-suite", x, len(profileIDs))
		}
	}
	if len(f.Series) != 2 || f.Series[0].Name != "measured" || f.Series[1].Name != "ideal" {
		t.Fatalf("series %+v", f.Series)
	}
	if m := f.Series[0].Ys; len(m) != len(want) || m[0] != 1 {
		t.Errorf("measured speedup %v should start at 1", m)
	}
	if !slices.Equal(f.Series[1].Ys, want) {
		t.Errorf("ideal %v, want %v", f.Series[1].Ys, want)
	}
}

// TestTunablesNameKnownModes: every tunable's ModeID must name a lab
// experiment or one of the ten waste modes, so an experiment cannot be
// deleted while a tunable (and T9's row for it) still points at it.
func TestTunablesNameKnownModes(t *testing.T) {
	known := make(map[string]bool)
	for _, id := range NewLab().IDs() {
		known[id] = true
	}
	for _, m := range waste.Modes() {
		known[m.ID] = true
	}
	for _, tn := range tune.Tunables(true) {
		if !known[tn.ModeID] {
			t.Errorf("tunable %s names ModeID %q, which is neither a lab experiment nor a waste mode", tn.ID, tn.ModeID)
		}
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	l := NewLab()
	cfg := Config{Quick: true}
	for _, e := range l.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.Table == nil && out.Figure == nil {
				t.Fatal("experiment produced nothing")
			}
			var sb strings.Builder
			if err := out.Render(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), e.ID) {
				t.Fatalf("output missing id:\n%s", sb.String())
			}
			if out.Figure != nil {
				if len(out.Figure.Xs) == 0 || len(out.Figure.Series) == 0 {
					t.Fatal("empty figure")
				}
				for _, s := range out.Figure.Series {
					if len(s.Ys) != len(out.Figure.Xs) {
						t.Fatalf("series %q has %d points, want %d",
							s.Name, len(s.Ys), len(out.Figure.Xs))
					}
				}
			}
		})
	}
}

// Quick F9 runs its five strides on one 4-core hierarchy, reset between
// strides: it allocates at least one hierarchy's bytes and less than two.
func TestF9BuildsOneHierarchy(t *testing.T) {
	cfg := Config{Quick: true}
	allocated := func(f func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	spec := cfg.machine()
	one := allocated(func() error { _, err := mem.NewHierarchy(spec, 4); return err })
	f9 := allocated(func() error { _, err := runF9(context.Background(), cfg); return err })
	if f9 < one || f9 >= 2*one {
		t.Fatalf("quick F9 allocated %d bytes; one 4-core %s hierarchy is %d", f9, spec.Name, one)
	}
}

func TestT1FactorsExceedOne(t *testing.T) {
	out, err := NewLab().Run("T1", Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Table.Rows) != 10 {
		t.Fatalf("T1 rows = %d", len(out.Table.Rows))
	}
	for _, row := range out.Table.Rows {
		tf := row[4]
		if !strings.HasSuffix(tf, "x") {
			t.Fatalf("bad factor cell %q", tf)
		}
	}
}

func TestStencilCampaignRemediedWins(t *testing.T) {
	spec := machine.Petascale2009()
	w, err := StencilCampaign(nil, spec, 8, 512, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := StencilCampaign(nil, spec, 8, 512, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds >= w.Seconds {
		t.Fatalf("remedied (%g) should beat wasteful (%g)", r.Seconds, w.Seconds)
	}
	if r.Joules >= w.Joules {
		t.Fatalf("remedied (%g J) should use less energy (%g J)", r.Joules, w.Joules)
	}
	if r.WireBytes >= w.WireBytes {
		t.Fatalf("remedied should move fewer bytes: %d vs %d", r.WireBytes, w.WireBytes)
	}
	if r.StepsPerJoule() <= w.StepsPerJoule() {
		t.Fatal("remedied should do more science per joule")
	}
	if (StencilResult{}).StepsPerJoule() != 0 {
		t.Fatal("zero-energy campaign should report 0 steps/J")
	}
}

func TestStencilCampaignSingleRank(t *testing.T) {
	if _, err := StencilCampaign(nil, machine.Laptop2009(), 1, 128, 3, false); err != nil {
		t.Fatal(err)
	}
}

func TestStencilGapLargeAtEveryScale(t *testing.T) {
	// The wasteful stack mixes volume waste (dominant at small P, where
	// blocks are big) and synchronisation waste (dominant at large P), so
	// the gap's two regimes trade off; the robust claim is that the gap
	// stays large everywhere while the remedied stack keeps scaling.
	spec := machine.Petascale2009()
	run := func(p int, wasteful bool) float64 {
		res, err := StencilCampaign(nil, spec, p, 1024, 5, wasteful)
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	for _, p := range []int{4, 16, 64} {
		if gap := run(p, true) / run(p, false); gap < 5 {
			t.Fatalf("P=%d: gap only %.1fx", p, gap)
		}
	}
	if r4, r64 := run(4, false), run(64, false); r64 >= r4/8 {
		t.Fatalf("remedied stack stopped scaling: %g at P=4, %g at P=64", r4, r64)
	}
}

func TestDiagnoseCleanRun(t *testing.T) {
	rec := trace.NewRecorder(4)
	for w := 0; w < 4; w++ {
		rec.Add(w, trace.Compute, time.Second)
	}
	if advice := Diagnose(rec.Breakdown()); len(advice) != 0 {
		t.Fatalf("clean run diagnosed: %+v", advice)
	}
}

func TestDiagnoseSyncWait(t *testing.T) {
	rec := trace.NewRecorder(2)
	rec.Add(0, trace.Compute, 500*time.Millisecond)
	rec.Add(1, trace.Compute, 500*time.Millisecond)
	rec.Add(0, trace.SyncWait, 400*time.Millisecond)
	rec.Add(1, trace.SyncWait, 400*time.Millisecond)
	advice := Diagnose(rec.Breakdown())
	if len(advice) == 0 || advice[0].ModeID != "W3" {
		t.Fatalf("expected W3, got %+v", advice)
	}
	if advice[0].Severity < 0.3 {
		t.Fatalf("severity = %g", advice[0].Severity)
	}
}

func TestDiagnoseImbalance(t *testing.T) {
	rec := trace.NewRecorder(2)
	rec.Add(0, trace.Compute, time.Second)
	rec.Add(1, trace.Compute, 100*time.Millisecond)
	found := false
	for _, a := range Diagnose(rec.Breakdown()) {
		if a.ModeID == "W4" {
			found = true
		}
	}
	if !found {
		t.Fatal("imbalanced run not diagnosed as W4")
	}
}

func TestDiagnoseMultipleSortedBySeverity(t *testing.T) {
	rec := trace.NewRecorder(2)
	rec.Add(0, trace.Compute, 100*time.Millisecond)
	rec.Add(1, trace.Compute, 100*time.Millisecond)
	rec.Add(0, trace.Serial, 300*time.Millisecond)
	rec.Add(1, trace.Serial, 300*time.Millisecond)
	rec.Add(0, trace.CommWait, 150*time.Millisecond)
	rec.Add(1, trace.CommWait, 150*time.Millisecond)
	advice := Diagnose(rec.Breakdown())
	if len(advice) < 2 {
		t.Fatalf("expected >= 2 findings, got %+v", advice)
	}
	for i := 1; i < len(advice); i++ {
		if advice[i].Severity > advice[i-1].Severity {
			t.Fatal("advice not sorted by severity")
		}
	}
	if advice[0].ModeID != "W5" {
		t.Fatalf("dominant waste should be W5, got %s", advice[0].ModeID)
	}
}

func TestDiagnoseIdleAndSteal(t *testing.T) {
	rec := trace.NewRecorder(1)
	rec.Add(0, trace.Compute, 100*time.Millisecond)
	rec.Add(0, trace.Idle, 100*time.Millisecond)
	rec.Add(0, trace.Steal, 100*time.Millisecond)
	ids := map[string]bool{}
	for _, a := range Diagnose(rec.Breakdown()) {
		ids[a.ModeID] = true
	}
	if !ids["W10"] || !ids["W7"] {
		t.Fatalf("expected W10 and W7, got %v", ids)
	}
}

func TestGetCaseInsensitive(t *testing.T) {
	l := NewLab()
	for _, id := range []string{"t8", "f25", "T9", "f26", "t1"} {
		e, err := l.Get(id)
		if err != nil {
			t.Errorf("Get(%q): %v", id, err)
			continue
		}
		if !strings.EqualFold(e.ID, id) {
			t.Errorf("Get(%q) returned %s", id, e.ID)
		}
	}
}

func TestT13ByteIdentical(t *testing.T) {
	// The autofix-coverage table is a self-audit over a fixed tree: two
	// renders in one process must be byte-equal, and the clean tree must
	// show zero current findings and zero applicable edits.
	l := NewLab()
	render := func() string {
		out, err := l.Run("T13", Config{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := out.Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render()
	if first != render() {
		t.Fatal("T13 is not byte-identical across runs")
	}
	for _, b := range t13Baseline {
		if !strings.Contains(first, b.pkg) || !strings.Contains(first, b.rule) {
			t.Errorf("T13 table missing baseline row %s/%s:\n%s", b.pkg, b.rule, first)
		}
	}
}

func TestSeedReproducibility(t *testing.T) {
	// Two runs at the same seed must render identical tables; a different
	// seed must change the injected-noise numbers.
	l := NewLab()
	render := func(seed uint64) string {
		out, err := l.Run("T8", Config{Quick: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := out.Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if render(7) != render(7) {
		t.Fatal("same seed produced different T8 tables")
	}
	if render(7) == render(8) {
		t.Fatal("different seeds produced identical T8 tables")
	}
	if render(0) != render(chaos.DefaultSeed) {
		t.Fatal("seed 0 should select the default seed")
	}
}

func TestDiagnoseOnReportsTunedParameters(t *testing.T) {
	// A run dominated by imbalance (W4) must come back with the tuned chunk
	// size for the diagnosed machine appended to the remedy.
	rec := trace.NewRecorder(2)
	rec.Add(0, trace.Compute, time.Second)
	rec.Add(1, trace.Compute, 100*time.Millisecond)
	m := machine.Petascale2009()
	advice, err := DiagnoseOn(rec.Breakdown(), m, true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range advice {
		if a.ModeID != "W4" {
			continue
		}
		found = true
		if !strings.Contains(a.Remedy, "tuned for petascale2009") ||
			!strings.Contains(a.Remedy, "chunk=") {
			t.Fatalf("W4 remedy missing tuned parameter: %q", a.Remedy)
		}
	}
	if !found {
		t.Fatalf("W4 not diagnosed: %+v", advice)
	}
	// Modes without a registered tunable keep their generic remedy.
	rec2 := trace.NewRecorder(2)
	rec2.Add(0, trace.Compute, 500*time.Millisecond)
	rec2.Add(1, trace.Compute, 500*time.Millisecond)
	rec2.Add(0, trace.Serial, 400*time.Millisecond)
	rec2.Add(1, trace.Serial, 400*time.Millisecond)
	advice2, err := DiagnoseOn(rec2.Breakdown(), m, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range advice2 {
		if a.ModeID == "W5" && strings.Contains(a.Remedy, "tuned for") {
			t.Fatalf("W5 has no tunable but got tuned remedy: %q", a.Remedy)
		}
	}
}

func TestConfigDefaultsMachine(t *testing.T) {
	if (Config{}).machine().Name != "petascale2009" {
		t.Fatal("default machine should be petascale2009")
	}
	s := machine.Laptop2009()
	if (Config{Machine: s}).machine() != s {
		t.Fatal("explicit machine not returned")
	}
}

func TestSortCampaignCorrectAndRemediedWins(t *testing.T) {
	spec := machine.Petascale2009()
	w, err := SortCampaign(nil, spec, 8, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SortCampaign(nil, spec, 8, 512, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.Keys != 8*512 || r.Keys != 8*512 {
		t.Fatalf("key counts: %d / %d", w.Keys, r.Keys)
	}
	if r.Seconds >= w.Seconds {
		t.Fatalf("remedied sort (%g) should beat wasteful (%g)", r.Seconds, w.Seconds)
	}
	if r.Messages >= w.Messages {
		t.Fatalf("remedied should send fewer messages: %d vs %d", r.Messages, w.Messages)
	}
	if r.KeysPerJoule() <= w.KeysPerJoule() {
		t.Fatal("remedied should sort more keys per joule")
	}
	if (SortResult{}).KeysPerJoule() != 0 {
		t.Fatal("zero-energy sort should report 0 keys/J")
	}
}

func TestCGCampaignShapes(t *testing.T) {
	spec := machine.Petascale2009()
	// s-step must win at scale, where allreduce latency dominates.
	std, err := CGCampaign(nil, spec, 64, 1024, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := CGCampaign(nil, spec, 64, 1024, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Seconds >= std.Seconds {
		t.Fatalf("s-step (%g) should beat standard (%g) at P=64", ca.Seconds, std.Seconds)
	}
	if _, err := CGCampaign(nil, spec, 3, 256, 5, 1); err == nil {
		t.Fatal("non-power-of-two ranks should fail")
	}
	if std.SecondsPerIteration() <= 0 {
		t.Fatal("per-iteration time")
	}
	if (CGCampaignResult{}).SecondsPerIteration() != 0 {
		t.Fatal("zero iterations should report 0")
	}
}

func TestNUMAExperimentShapes(t *testing.T) {
	out, err := NewLab().Run("F20", Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	fig := out.Figure
	// At factor 1 all placements tie; at the largest factor serial-init
	// must be worst and parallel first-touch best.
	last := len(fig.Xs) - 1
	var good, inter, bad float64
	for _, s := range fig.Series {
		switch s.Name {
		case "first-touch-parallel-init":
			good = s.Ys[last]
		case "interleaved":
			inter = s.Ys[last]
		case "first-touch-serial-init":
			bad = s.Ys[last]
		}
	}
	if !(good < inter && good < bad) {
		t.Fatalf("parallel first-touch should win: good=%g inter=%g bad=%g", good, inter, bad)
	}
	// In the latency-additive model serial-init and interleave both run
	// half remote on 2 domains.
	if bad < inter*0.75 || bad > inter*1.25 {
		t.Fatalf("serial-init (%g) should be comparable to interleave (%g) in this model", bad, inter)
	}
}

func TestDiagnoseModeledOversyncRun(t *testing.T) {
	// The unified-plane payoff: Diagnose works on simulated runs. An
	// oversynchronised world must be flagged W3; a latency-bound blocking
	// exchange must be flagged W6.
	spec := machine.Petascale2009()
	w := pgas.NewWorld(16, spec, nil, nil)
	end, err := w.Run(func(r *pgas.Rank) {
		c := collective.New(r)
		for s := 0; s < 20; s++ {
			r.Lapse(1e-6)
			c.BarrierCentral()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range Diagnose(w.Breakdown(end)) {
		if a.ModeID == "W3" {
			found = true
		}
	}
	if !found {
		t.Fatal("oversynced simulated run not diagnosed as W3")
	}

	w2 := pgas.NewWorld(2, spec, nil, nil)
	w2.Alloc("x", 1<<16)
	end2, err := w2.Run(func(r *pgas.Rank) {
		buf := make([]float64, 1<<16)
		for s := 0; s < 5; s++ {
			if r.ID() == 0 {
				r.Put(1, "x", 0, buf) // blocking, nothing overlapped
				r.Lapse(1e-6)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, a := range Diagnose(w2.Breakdown(end2)) {
		if a.ModeID == "W6" {
			found = true
		}
	}
	if !found {
		t.Fatal("blocking-exchange simulated run not diagnosed as W6")
	}
}

func TestBFSCampaignCorrectAndRemediedWins(t *testing.T) {
	spec := machine.Petascale2009()
	g := workload.RMAT(7, 9, 8)
	w, err := BFSCampaign(nil, spec, 8, g, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := BFSCampaign(nil, spec, 8, g, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.Levels == 0 || r.Levels != w.Levels {
		t.Fatalf("levels: wasteful %d, remedied %d", w.Levels, r.Levels)
	}
	if r.Seconds >= w.Seconds {
		t.Fatalf("remedied BFS (%g) should beat wasteful (%g)", r.Seconds, w.Seconds)
	}
	if r.TEPS() <= w.TEPS() {
		t.Fatal("remedied should traverse more edges per second")
	}
	if (BFSResult{}).TEPS() != 0 {
		t.Fatal("zero-time TEPS should be 0")
	}
	if _, err := BFSCampaign(nil, spec, 3, g, false); err == nil {
		t.Fatal("non-pow2 remedied BFS should fail")
	}
	if _, err := BFSCampaign(nil, spec, 7, g, true); err == nil {
		t.Fatal("non-dividing p should fail")
	}
}

func TestDiagnoseNoise(t *testing.T) {
	rec := trace.NewRecorder(2)
	rec.Add(0, trace.Compute, 800*time.Millisecond)
	rec.Add(1, trace.Compute, 800*time.Millisecond)
	rec.Add(0, trace.Noise, 100*time.Millisecond)
	rec.Add(1, trace.Noise, 100*time.Millisecond)
	advice := Diagnose(rec.Breakdown())
	found := false
	for _, a := range advice {
		if a.ModeID == "N1" {
			found = true
			if a.Severity < 0.05 {
				t.Fatalf("noise severity = %g", a.Severity)
			}
		}
	}
	if !found {
		t.Fatalf("expected N1 noise advice, got %+v", advice)
	}
}

// TestDiagnoseAttributesInjectedNoise closes the loop end to end: a chaos
// scenario injected into a pgas run must surface as N1 in Diagnose.
func TestDiagnoseAttributesInjectedNoise(t *testing.T) {
	sc := chaos.NewScenario().Add(chaos.NewJitter(chaos.Exponential, 0.25, 7, 4))
	res, err := chaos.RunIdleWave(machine.Petascale2009(), chaos.IdleWaveConfig{
		Ranks: 4, Steps: 20, Compute: 1e-3, Words: 8, Stack: chaos.NeighborBlocking, Chaos: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Diagnose(res.Breakdown) {
		if a.ModeID == "N1" {
			return
		}
	}
	t.Fatalf("injected jitter not diagnosed: %v, advice %+v", res.Breakdown, Diagnose(res.Breakdown))
}
