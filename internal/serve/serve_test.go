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
// evaluations actually happened.
type stubLab struct {
	runs atomic.Int64
	// gate, when non-nil, blocks RunContext until closed (or ctx expires).
	gate chan struct{}
	// fail, when non-nil, is returned by every RunContext call.
	fail error
}

func (l *stubLab) Experiments() []core.Experiment {
	out := make([]core.Experiment, 0, 8)
	for i := 1; i <= 8; i++ {
		id := "E" + strconv.Itoa(i)
		out = append(out, core.Experiment{ID: id, Title: "stub " + id})
	}
	return out
}

func (l *stubLab) Get(id string) (core.Experiment, error) {
	for _, e := range l.Experiments() {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	return core.Experiment{}, errors.New("unknown experiment " + id)
}

func (l *stubLab) RunContext(ctx context.Context, id string, cfg core.Config) (core.Output, error) {
	l.runs.Add(1)
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
	t := report.NewTable(id, "stub output", "k", "v")
	t.AddRow("seed", strconv.FormatUint(cfg.Seed, 10))
	return core.Output{Table: t}, nil
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

func TestInvalidateCache(t *testing.T) {
	lab := &stubLab{}
	srv, ts := newTestServer(t, lab, Options{})
	get(t, ts.URL+"/v1/run?id=E1")
	srv.InvalidateCache()
	_, hdr, _ := get(t, ts.URL+"/v1/run?id=E1")
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("post-invalidate X-Cache = %q, want miss", hdr.Get("X-Cache"))
	}
	if n := lab.runs.Load(); n != 2 {
		t.Fatalf("lab ran %d times, want 2 after invalidation", n)
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

	// Unknown category and empty body are client errors.
	for _, bad := range []string{`{"workers":[{"nope":1}]}`, `{"workers":[]}`, `not json`} {
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
