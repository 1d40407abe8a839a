package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tenways/internal/core"
	"tenways/internal/report"
)

// stubLab implements Lab with a controllable gate so tests can hold runs
// in flight, and an atomic counter so they can assert how many underlying
// evaluations actually happened. Titles carry characters JSON escapes
// (<, &, ") and non-ASCII text; every run records one stub.runs count.
type stubLab struct {
	runs atomic.Int64
	// gate, when non-nil, blocks every run until closed (or ctx expires).
	gate chan struct{}
	// fail, when non-nil, is returned by every run.
	fail error
	// panicky, when set, makes every run panic.
	panicky bool
	// rows is the number of rows each table carries after its seed row.
	rows int

	once sync.Once
	exps []core.Experiment
}

// Experiments builds the catalogue once, so Get, which every request
// calls, allocates nothing, as core.Lab's does not.
func (l *stubLab) Experiments() []core.Experiment {
	l.once.Do(func() {
		for i := 1; i <= 8; i++ {
			id := "E" + strconv.Itoa(i)
			l.exps = append(l.exps, core.Experiment{ID: id, Title: "stub " + id + ` <b> & "Grüße" 🚀`,
				Run: func(ctx context.Context, cfg core.Config) (core.Output, error) { return l.run(ctx, id, cfg) }})
		}
	})
	return l.exps
}

func (l *stubLab) Get(id string) (core.Experiment, error) {
	for _, e := range l.Experiments() {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	return core.Experiment{}, errors.New("unknown experiment " + id)
}

// run is every stub experiment's Run.
func (l *stubLab) run(ctx context.Context, id string, cfg core.Config) (core.Output, error) {
	l.runs.Add(1)
	if l.panicky {
		panic("stub " + id + " exploded")
	}
	if l.fail != nil {
		return core.Output{}, l.fail
	}
	if l.gate != nil {
		select {
		case <-l.gate:
		case <-ctx.Done():
			return core.Output{}, ctx.Err()
		}
	}
	cfg.Obs.Counter("stub.runs").Inc()
	t := report.NewTable(id, "stub output", "k", "v")
	t.AddRow("seed", strconv.FormatUint(cfg.Seed, 10))
	for i := 0; i < l.rows; i++ {
		t.AddRow("row "+strconv.Itoa(i), strconv.Itoa(i*i))
	}
	f := report.NewFigure(id, "stub figure", "x", "y")
	f.Xs = []float64{1, 2}
	f.AddSeries("s", []float64{0.5, float64(cfg.Seed)})
	return core.Output{Table: t, Figure: f}, nil
}

func newTestServer(t *testing.T, lab Lab, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(lab, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, body
}

// counterValue digs a counter out of a /metrics JSON body.
func counterValue(t *testing.T, body []byte, name string) float64 {
	t.Helper()
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad /metrics body: %v\n%s", err, body)
	}
	if v, ok := snap.Counters[name]; ok {
		return float64(v)
	}
	return snap.Gauges[name]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, &stubLab{}, Options{})
	code, _, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, &stubLab{}, Options{})
	code, _, body := get(t, ts.URL+"/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("experiments = %d: %s", code, body)
	}
	var exps []struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	if err := json.Unmarshal(body, &exps); err != nil {
		t.Fatalf("bad body: %v", err)
	}
	if len(exps) != 8 || exps[0].ID != "E1" || exps[7].ID != "E8" {
		t.Fatalf("unexpected catalog: %+v", exps)
	}
}

func TestRunEndpointAndCacheHit(t *testing.T) {
	lab := &stubLab{}
	_, ts := newTestServer(t, lab, Options{})

	code, hdr, body := get(t, ts.URL+"/v1/run?id=E1&seed=7")
	if code != http.StatusOK {
		t.Fatalf("run = %d: %s", code, body)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		t.Fatalf("first run X-Cache = %q, want miss", got)
	}
	var resp struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
		Table  *report.Table
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad body: %v", err)
	}
	if resp.ID != "E1" || resp.Cached || resp.Table == nil {
		t.Fatalf("unexpected response: %+v", resp)
	}

	// Identical request: answered from cache, no second evaluation.
	code, hdr, body = get(t, ts.URL+"/v1/run?id=E1&seed=7")
	if code != http.StatusOK {
		t.Fatalf("cached run = %d: %s", code, body)
	}
	if got := hdr.Get("X-Cache"); got != "hit" {
		t.Fatalf("second run X-Cache = %q, want hit", got)
	}
	if n := lab.runs.Load(); n != 1 {
		t.Fatalf("lab ran %d times, want 1", n)
	}

	// Different seed: a genuinely new run.
	if code, _, _ = get(t, ts.URL+"/v1/run?id=E1&seed=8"); code != http.StatusOK {
		t.Fatalf("new-seed run = %d", code)
	}
	if n := lab.runs.Load(); n != 2 {
		t.Fatalf("lab ran %d times, want 2", n)
	}
}

func TestRunEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, &stubLab{}, Options{})
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/run", http.StatusBadRequest},
		{"/v1/run?id=nope", http.StatusNotFound},
		{"/v1/run?id=E1&machine=nope", http.StatusBadRequest},
		{"/v1/run?id=E1&seed=banana", http.StatusBadRequest},
		{"/v1/run?id=E1&quick=banana", http.StatusBadRequest},
		{"/v1/run?id=E1&timeout=banana", http.StatusBadRequest},
		{"/v1/run?id=E1&format=nope", http.StatusBadRequest},
	} {
		if code, _, body := get(t, ts.URL+tc.url); code != tc.want {
			t.Errorf("%s = %d, want %d (%s)", tc.url, code, tc.want, body)
		}
	}
}

func TestRunEndpointLabError(t *testing.T) {
	lab := &stubLab{fail: errors.New("boom")}
	_, ts := newTestServer(t, lab, Options{})
	code, _, body := get(t, ts.URL+"/v1/run?id=E1")
	if code != http.StatusInternalServerError {
		t.Fatalf("failed run = %d: %s", code, body)
	}
	if !bytes.Contains(body, []byte("boom")) {
		t.Fatalf("error body does not mention cause: %s", body)
	}
}

// TestRunPanicIsContained: a panicking experiment answers 500 naming the
// panic, well inside the request's timeout, and leaves no flight behind
// for the next request of its key to wait on.
func TestRunPanicIsContained(t *testing.T) {
	lab := &stubLab{panicky: true}
	srv, ts := newTestServer(t, lab, Options{})
	for i := 0; i < 2; i++ {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/v1/run?id=E1&timeout=1s")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d: read: %v", i, err)
		}
		if took := time.Since(start); took > 500*time.Millisecond {
			t.Errorf("request %d took %v against a 1s timeout", i, took)
		}
		if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("stub E1 exploded")) {
			t.Fatalf("request %d = %d %s, want 500 naming the panic", i, resp.StatusCode, body)
		}
	}
	if n := lab.runs.Load(); n != 2 {
		t.Errorf("lab ran %d times, want 2", n)
	}
	_, _, body := get(t, ts.URL+"/metrics")
	c := func(name string) float64 { return counterValue(t, body, name) }
	if c("serve.errors") != 2 || c("serve.coalesced") != 0 || c("serve.coalesce_waiting") != 0 {
		t.Fatalf("errors/coalesced/coalesce_waiting = %v/%v/%v, want 2/0/0",
			c("serve.errors"), c("serve.coalesced"), c("serve.coalesce_waiting"))
	}
	if n := srv.flight.waiters(); n != 0 {
		t.Fatalf("%d followers still parked", n)
	}
}

// TestCoalescing is the satellite's core claim: 32 concurrent identical
// requests cost exactly one lab evaluation.
func TestCoalescing(t *testing.T) {
	lab := &stubLab{gate: make(chan struct{})}
	srv, ts := newTestServer(t, lab, Options{Parallel: 2})

	const n = 32
	var wg sync.WaitGroup
	codes := make([]int, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			code, _, _ := get(t, ts.URL+"/v1/run?id=E1&seed=42")
			codes[i] = code
		}(i)
	}

	// One leader computes; the other 31 park behind it. The flight's
	// waiter count (the serve.coalesce_waiting gauge) makes the parked
	// followers observable before we open the gate.
	waitFor(t, "31 coalesced waiters", func() bool { return srv.flight.waiters() == n-1 })
	if got := lab.runs.Load(); got != 1 {
		t.Fatalf("while gated: %d lab runs in flight, want 1", got)
	}
	close(lab.gate)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, code)
		}
	}
	if got := lab.runs.Load(); got != 1 {
		t.Fatalf("after coalescing: %d lab runs, want exactly 1", got)
	}

	// The coalesce counter recorded the 31 followers, and a repeat request
	// is now a cache hit.
	_, _, body := get(t, ts.URL+"/metrics")
	if got := counterValue(t, body, "serve.coalesced"); got != n-1 {
		t.Fatalf("serve.coalesced = %v, want %d", got, n-1)
	}
	code, hdr, _ := get(t, ts.URL+"/v1/run?id=E1&seed=42")
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("repeat = %d X-Cache=%q, want 200 hit", code, hdr.Get("X-Cache"))
	}
	if got := lab.runs.Load(); got != 1 {
		t.Fatalf("after cached repeat: %d lab runs, want 1", got)
	}
}

// TestFollowerOutlivesLeaderDeadline checks that a coalesced follower does
// not inherit its leader's deadline: the leader times out in the queue,
// and the follower, whose own deadline is far off, tries again and is
// served once the slot frees.
func TestFollowerOutlivesLeaderDeadline(t *testing.T) {
	lab := &stubLab{gate: make(chan struct{})}
	srv, ts := newTestServer(t, lab, Options{Parallel: 1})

	fetch := func(url string) <-chan int {
		code := make(chan int, 1)
		go func() {
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				code <- 0
				return
			}
			resp.Body.Close()
			code <- resp.StatusCode
		}()
		return code
	}
	// E1 holds the one slot; the E2 leader queues behind it with a short
	// deadline, and a second E2 request follows the leader.
	e1 := fetch(ts.URL + "/v1/run?id=E1")
	waitFor(t, "E1 running", func() bool { return srv.adm.running() == 1 })
	leader := fetch(ts.URL + "/v1/run?id=E2&timeout=200ms")
	waitFor(t, "E2 leader queued", func() bool { return srv.adm.queued() == 1 })
	follower := fetch(ts.URL + "/v1/run?id=E2")
	waitFor(t, "E2 follower parked", func() bool { return srv.flight.waiters() == 1 })

	if code := <-leader; code != http.StatusGatewayTimeout {
		t.Fatalf("leader = %d, want 504", code)
	}
	close(lab.gate)
	if code := <-follower; code != http.StatusOK {
		t.Fatalf("follower = %d, want 200 after its leader's deadline", code)
	}
	if code := <-e1; code != http.StatusOK {
		t.Fatalf("E1 = %d, want 200", code)
	}

	_, _, body := get(t, ts.URL+"/metrics")
	c := func(name string) float64 { return counterValue(t, body, name) }
	if c("serve.timeouts") != 1 || c("serve.cache_misses") != 3 || c("serve.requests") != 3 {
		t.Fatalf("timeouts/misses/requests = %v/%v/%v, want 1/3/3",
			c("serve.timeouts"), c("serve.cache_misses"), c("serve.requests"))
	}
}

// TestAdmissionCancelPassesSlotOn races a queued caller's cancellation
// against the release that hands it the slot. Whichever wins, the slot
// must not leak: a waiter that gives up after being granted passes it on.
func TestAdmissionCancelPassesSlotOn(t *testing.T) {
	for i := 0; i < 100; i++ {
		a := newAdmission(1, 1)
		release, _, err := a.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			if r, _, err := a.acquire(ctx); err == nil {
				r()
			}
		}()
		waitFor(t, "one waiter", func() bool { return a.queued() == 1 })
		cancel()
		release()
		<-done
		if a.running() != 0 || a.queued() != 0 {
			t.Fatalf("round %d: %d running, %d queued after all callers left", i, a.running(), a.queued())
		}
	}
}

// TestAdmissionOverflow fills every run slot and every queue position with
// distinct requests, then asserts the next one is shed with 429 and a
// Retry-After hint.
func TestAdmissionOverflow(t *testing.T) {
	lab := &stubLab{gate: make(chan struct{})}
	srv, ts := newTestServer(t, lab, Options{Parallel: 1, QueueDepth: 2})

	// E1 occupies the single run slot; E2 and E3 fill the queue. Distinct
	// ids keep the requests out of each other's coalescing sets.
	var wg sync.WaitGroup
	for _, id := range []string{"E1", "E2", "E3"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			get(t, ts.URL+"/v1/run?id="+id)
		}(id)
	}
	waitFor(t, "slot busy and queue full", func() bool {
		return srv.adm.running() == 1 && srv.adm.queued() == 2
	})

	code, hdr, body := get(t, ts.URL+"/v1/run?id=E4")
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request = %d: %s", code, body)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After = %q, want integer in [1,60]", hdr.Get("Retry-After"))
	}

	close(lab.gate)
	wg.Wait()

	_, _, mbody := get(t, ts.URL+"/metrics")
	if got := counterValue(t, mbody, "serve.rejected"); got != 1 {
		t.Fatalf("serve.rejected = %v, want 1", got)
	}
	// With load drained the shed request succeeds on retry.
	if code, _, _ := get(t, ts.URL+"/v1/run?id=E4"); code != http.StatusOK {
		t.Fatalf("post-drain retry = %d, want 200", code)
	}
}

// TestRunAccounting sends valid concurrent /v1/run requests that mix cache
// misses, coalesced followers, one 429 and cache hits, then checks that
// /metrics accounts for every request exactly once: each request is a hit
// or a miss, and coalesced followers and rejections are both kinds of miss.
func TestRunAccounting(t *testing.T) {
	lab := &stubLab{gate: make(chan struct{})}
	srv, ts := newTestServer(t, lab, Options{Parallel: 1, QueueDepth: 1})

	// Eight E1 requests: one leader takes the run slot, seven follow it.
	// E2 then waits in the queue, and after the gate opens six repeats hit.
	const followers, hits = 7, 6
	var wg sync.WaitGroup
	codes := make(chan int, followers+2+hits) // one per background request
	run := func(id string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/run?id=" + id)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i <= followers; i++ {
		run("E1")
	}
	waitFor(t, "E1 leader running with its followers parked", func() bool {
		return srv.adm.running() == 1 && srv.flight.waiters() == followers
	})
	// E2 takes the one queue position, so E3 is shed.
	run("E2")
	waitFor(t, "E2 queued", func() bool { return srv.adm.queued() == 1 })
	if code, _, body := get(t, ts.URL+"/v1/run?id=E3"); code != http.StatusTooManyRequests {
		t.Fatalf("E3 = %d, want 429: %s", code, body)
	}
	close(lab.gate)
	wg.Wait()
	// Both results are cached now: the concurrent repeats are hits.
	for i := 0; i < hits; i++ {
		run([]string{"E1", "E2"}[i%2])
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request = %d, want 200", code)
		}
	}

	_, _, body := get(t, ts.URL+"/metrics")
	c := func(name string) int64 { return int64(counterValue(t, body, name)) }
	reqs, hit, miss := c("serve.requests"), c("serve.cache_hits"), c("serve.cache_misses")
	coalesced, rejected := c("serve.coalesced"), c("serve.rejected")
	if reqs != hit+miss {
		t.Errorf("serve.requests = %d, want cache_hits + cache_misses = %d + %d", reqs, hit, miss)
	}
	if coalesced > miss || rejected > miss {
		t.Errorf("coalesced %d and rejected %d must not exceed cache_misses %d", coalesced, rejected, miss)
	}
	// 8 E1 + E2 + E3 are misses; the repeats are hits.
	if reqs != followers+3+hits || hit != hits || coalesced != followers || rejected != 1 {
		t.Errorf("requests/hits/coalesced/rejected = %d/%d/%d/%d, want %d/%d/%d/1",
			reqs, hit, coalesced, rejected, followers+3+hits, hits, followers)
	}
}

// TestMetricsDeterministic asserts consecutive idle scrapes are
// byte-identical: scrapes must not perturb the metrics they report.
func TestMetricsDeterministic(t *testing.T) {
	_, ts := newTestServer(t, &stubLab{}, Options{})
	// Put some real traffic on the instruments first.
	get(t, ts.URL+"/v1/run?id=E1")
	get(t, ts.URL+"/v1/run?id=E1")
	get(t, ts.URL+"/v1/experiments")

	_, _, a := get(t, ts.URL+"/metrics")
	_, _, b := get(t, ts.URL+"/metrics")
	if !bytes.Equal(a, b) {
		t.Fatalf("consecutive idle /metrics scrapes differ:\n%s\n---\n%s", a, b)
	}
	if !json.Valid(a) {
		t.Fatalf("/metrics is not valid JSON: %s", a)
	}
	// The text rendering works too.
	code, _, txt := get(t, ts.URL+"/metrics?format=text")
	if code != http.StatusOK || len(txt) == 0 {
		t.Fatalf("text metrics = %d (%d bytes)", code, len(txt))
	}
}

func TestRunTimeout(t *testing.T) {
	lab := &stubLab{gate: make(chan struct{})} // never opened: run hangs
	defer close(lab.gate)
	_, ts := newTestServer(t, lab, Options{})
	code, _, body := get(t, ts.URL+"/v1/run?id=E1&timeout=30ms")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out run = %d: %s", code, body)
	}
	_, _, mbody := get(t, ts.URL+"/metrics")
	if got := counterValue(t, mbody, "serve.timeouts"); got != 1 {
		t.Fatalf("serve.timeouts = %v, want 1", got)
	}
}

func TestDiagnoseEndpoint(t *testing.T) {
	_, ts := newTestServer(t, &stubLab{}, Options{})
	// A breakdown dominated by sync-wait should surface at least one mode.
	req := `{"workers":[{"compute":4,"sync-wait":5,"idle":1},{"compute":6,"sync-wait":3,"idle":1}]}`
	resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatalf("POST diagnose: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose = %d: %s", resp.StatusCode, body)
	}
	var advice []struct {
		Mode     string  `json:"mode"`
		Severity float64 `json:"severity"`
	}
	if err := json.Unmarshal(body, &advice); err != nil {
		t.Fatalf("bad body: %v\n%s", err, body)
	}
	if len(advice) == 0 {
		t.Fatalf("no advice for a sync-dominated breakdown: %s", body)
	}

	// Unknown category, empty body and data after the object are client
	// errors.
	for _, bad := range []string{
		`{"workers":[{"nope":1}]}`, `{"workers":[]}`, `not json`,
		`{"workers":[{"steal":1}]} garbage`, `{"workers":[{"steal":1}]}{}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("POST diagnose: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("diagnose(%q) = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDiagnoseRejectsImpossibleDurations: a negative number of seconds, or
// one that takes the attributed total past what time.Duration holds
// (~9.2e9 s), is a 400 naming the worker index and the category, not
// advice computed from a wrapped or negative duration.
func TestDiagnoseRejectsImpossibleDurations(t *testing.T) {
	_, ts := newTestServer(t, &stubLab{}, Options{})
	for _, c := range []struct {
		body, want string // want "" means 200
	}{
		{`{"workers":[{"compute":-5,"idle":10}]}`, `workers[0] "compute"`},
		{`{"workers":[{"compute":1e300,"idle":10}]}`, `workers[0] "compute"`},
		{`{"workers":[{"compute":1},{"idle":-0.5}]}`, `workers[1] "idle"`},
		{`{"workers":[{"compute":5e9,"idle":5e9}]}`, `workers[0] "idle"`},
		{`{"workers":[{"compute":5e9},{"compute":5e9}]}`, `workers[1] "compute"`},
		{`{"workers":[{"compute":0,"idle":9e9}]}`, ``},
	} {
		resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("POST diagnose: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if c.want == "" {
			if resp.StatusCode != http.StatusOK {
				t.Errorf("diagnose(%s) = %d, want 200: %s", c.body, resp.StatusCode, body)
			}
			continue
		}
		var e apiError
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("diagnose(%s): bad body: %v\n%s", c.body, err, body)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, c.want) {
			t.Errorf("diagnose(%s) = %d %q, want 400 naming %s", c.body, resp.StatusCode, e.Error, c.want)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, &stubLab{}, Options{})
	resp, err := http.Post(ts.URL+"/v1/run?id=E1", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("POST run: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/run = %d, want 405", resp.StatusCode)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Parallel != 4 || o.QueueDepth != 64 || o.CacheSize != 1024 ||
		o.DefaultTimeout != 2*time.Minute || o.MaxTimeout != 10*time.Minute ||
		o.Machine != "petascale2009" || o.Obs == nil {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestRealLabSatisfiesInterface(t *testing.T) {
	var _ Lab = core.NewLab()
}

// TestRunETagRevalidation covers the conditional-GET path on /v1/run: the
// first response carries a format-qualified ETag, revalidating with
// If-None-Match (including weak and list forms) gets a bodyless 304, a
// different format never matches the JSON tag, and a stale tag gets the
// full body again.
func TestRunETagRevalidation(t *testing.T) {
	_, ts := newTestServer(t, &stubLab{}, Options{})
	url := ts.URL + "/v1/run?id=E1"

	code, hdr, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("first GET: status %d: %s", code, body)
	}
	etag := hdr.Get("ETag")
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `-json"`) {
		t.Fatalf("ETag = %q, want a quoted json-suffixed tag", etag)
	}

	revalidate := func(t *testing.T, url, inm string) (int, http.Header, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, b
	}

	for _, inm := range []string{etag, "W/" + etag, `"zzz", ` + etag, "*"} {
		code, hdr, body := revalidate(t, url, inm)
		if code != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, code)
		}
		if len(body) != 0 {
			t.Fatalf("If-None-Match %q: 304 carried a %d-byte body", inm, len(body))
		}
		if hdr.Get("ETag") != etag {
			t.Fatalf("304 ETag = %q, want %q", hdr.Get("ETag"), etag)
		}
	}

	// The JSON tag must not validate the text rendering: same cached entry,
	// different representation.
	code, hdr, body = revalidate(t, url+"&format=text", etag)
	if code != http.StatusOK {
		t.Fatalf("format=text with json tag: status %d, want 200", code)
	}
	if len(body) == 0 {
		t.Fatal("format=text with json tag: empty body")
	}
	textTag := hdr.Get("ETag")
	if textTag == etag || !strings.HasSuffix(textTag, `-text"`) {
		t.Fatalf("text ETag = %q, want a distinct -text tag (json was %q)", textTag, etag)
	}

	// A stale tag re-serves the body.
	code, _, body = revalidate(t, url, `"deadbeef-json"`)
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("stale tag: status %d, body %d bytes, want full 200", code, len(body))
	}

	_, _, metrics := get(t, ts.URL+"/metrics")
	if n := counterValue(t, metrics, "serve.not_modified"); n != 4 {
		t.Fatalf("serve.not_modified = %v, want 4 (one per matching revalidation)", n)
	}
}

// TestFillServesEntryCachedSinceLookup: a request whose cache lookup
// missed while another leader was running the key, and whose flight.do
// comes after that leader cached its entry and left, serves the entry
// instead of running the key again; two runs of one key would answer its
// later requests with a second wall_ms.
func TestFillServesEntryCachedSinceLookup(t *testing.T) {
	s := New(&stubLab{}, Options{})
	want := &runEntry{Hash: "cached"}
	s.cache.Put("k", want)
	v, cached, coalesced, err := s.fill(context.Background(), "k", func() (any, time.Duration, error) {
		t.Fatal("fill ran a key that is already cached")
		return nil, 0, nil
	})
	if err != nil || v != want || cached || coalesced {
		t.Fatalf("fill = %v, cached %v, coalesced %v, %v; want the cached entry as a miss", v, cached, coalesced, err)
	}
	if st := s.cache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("cache stats %+v: the re-check counted a lookup", st)
	}
}
