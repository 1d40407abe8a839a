package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"tenways/internal/core"
	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/report"
)

// runResponse is the /v1/run JSON body as one struct, rendered whole by
// json.MarshalIndent: the oracle the stored and spliced bodies must equal
// byte for byte.
type runResponse struct {
	ID        string         `json:"id"`
	Title     string         `json:"title"`
	Machine   string         `json:"machine"`
	Seed      uint64         `json:"seed,omitempty"`
	Quick     bool           `json:"quick,omitempty"`
	Cached    bool           `json:"cached"`
	Coalesced bool           `json:"coalesced,omitempty"`
	WallMS    float64        `json:"wall_ms"`
	Table     *report.Table  `json:"table,omitempty"`
	Figure    *report.Figure `json:"figure,omitempty"`
	Metrics   obs.Snapshot   `json:"metrics"`
}

// runCase is one /v1/run request of TestRunBodiesMatchOracle and the
// response it must get.
type runCase struct {
	query             string
	id                string
	seed              uint64
	quick             bool
	cached, coalesced bool
}

// oracleRun renders what the whole-struct renderer answers for c: the JSON
// body with the response's own wall_ms, and the ETag hashed from the run's
// output and metrics.
func oracleRun(t *testing.T, lab Lab, c runCase, wallMS float64) (body []byte, etag string, out core.Output) {
	t.Helper()
	e, err := lab.Get(c.id)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunOne(context.Background(), e, core.Config{Machine: machine.Preset("petascale2009"), Quick: c.quick, Seed: c.seed})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	blob, err := json.MarshalIndent(runResponse{
		ID: e.ID, Title: e.Title, Machine: "petascale2009", Seed: c.seed, Quick: c.quick,
		Cached: c.cached, Coalesced: c.coalesced, WallMS: wallMS,
		Table: res.Output.Table, Figure: res.Output.Figure, Metrics: res.Metrics,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	enc.Encode(res.Output)
	enc.Encode(res.Metrics)
	return append(blob, '\n'), `"` + strconv.FormatUint(h.Sum64(), 16) + `-json"`, res.Output
}

// checkRunBody compares one 200 JSON response with the oracle.
func checkRunBody(t *testing.T, lab Lab, c runCase, code int, hdr http.Header, body []byte) {
	t.Helper()
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("%s: %d %q, want 200 application/json: %s", c.query, code, hdr.Get("Content-Type"), body)
	}
	if want := cacheHeader(c.cached); hdr.Get("X-Cache") != want {
		t.Fatalf("%s: X-Cache %q, want %q", c.query, hdr.Get("X-Cache"), want)
	}
	var got struct {
		WallMS float64 `json:"wall_ms"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: %v\n%s", c.query, err, body)
	}
	want, etag, _ := oracleRun(t, lab, c, got.WallMS)
	if !bytes.Equal(body, want) {
		t.Fatalf("%s: body differs from the whole-struct rendering\ngot:\n%s\nwant:\n%s", c.query, body, want)
	}
	if hdr.Get("ETag") != etag {
		t.Fatalf("%s: ETag %s, want %s", c.query, hdr.Get("ETag"), etag)
	}
}

// TestRunBodiesMatchOracle: every 200 JSON body of /v1/run (miss leader,
// coalesced follower and hit, default format and format=json, zero and
// non-zero seed, quick and not) equals json.MarshalIndent of the whole
// response struct, and its ETag is the hash of output and metrics. The stub
// titles pin the head's HTML escaping and non-ASCII text. Text formats
// render the entry's Output, and a matching If-None-Match gets a bodyless
// 304.
func TestRunBodiesMatchOracle(t *testing.T) {
	lab := &stubLab{gate: make(chan struct{})}
	srv, ts := newTestServer(t, lab, Options{Parallel: 1})

	// A leader held at the gate and one follower parked behind it.
	type reply struct {
		code int
		hdr  http.Header
		body []byte
	}
	gated := []runCase{
		{query: "id=E1&seed=7&quick=1", id: "E1", seed: 7, quick: true},
		{query: "id=e1&seed=7&quick=true&format=json", id: "E1", seed: 7, quick: true, coalesced: true},
	}
	replies := make([]reply, len(gated))
	var wg sync.WaitGroup
	for i, c := range gated {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/run?" + c.query)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
			replies[i] = reply{resp.StatusCode, resp.Header, body}
		}()
		if i == 0 {
			waitFor(t, "leader running", func() bool { return srv.adm.running() == 1 })
		}
	}
	waitFor(t, "follower parked", func() bool { return srv.flight.waiters() == 1 })
	close(lab.gate)
	wg.Wait()
	for i, c := range gated {
		checkRunBody(t, lab, c, replies[i].code, replies[i].hdr, replies[i].body)
	}

	var etag string
	for _, c := range []runCase{
		{query: "id=E1&seed=7&quick=1", id: "E1", seed: 7, quick: true, cached: true},
		{query: "id=E1&seed=7&quick=1&format=json", id: "E1", seed: 7, quick: true, cached: true},
		{query: "id=E2&format=json", id: "E2"},
		{query: "id=E2&seed=0&quick=false", id: "E2", cached: true},
		{query: "id=E3&quick=0", id: "E3"},
		{query: "id=E3&format=json", id: "E3", cached: true},
	} {
		code, hdr, body := get(t, ts.URL+"/v1/run?"+c.query)
		checkRunBody(t, lab, c, code, hdr, body)
		etag = hdr.Get("ETag")
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/run?id=E3", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != etag {
		t.Fatalf("revalidation = %d, ETag %q, %d-byte body, %v; want a bodyless 304 with ETag %q",
			resp.StatusCode, resp.Header.Get("ETag"), len(body), err, etag)
	}

	for _, format := range []string{"ascii", "csv", "markdown"} {
		code, hdr, body := get(t, ts.URL+"/v1/run?id=E4&seed=3&format="+format)
		r, err := report.RendererByName(format)
		if err != nil {
			t.Fatal(err)
		}
		_, _, out := oracleRun(t, lab, runCase{id: "E4", seed: 3}, 0)
		var want bytes.Buffer
		if err := out.RenderWith(&want, r); err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK || hdr.Get("Content-Type") != "text/plain; charset=utf-8" || !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("format=%s: %d %q\n%s\nwant:\n%s", format, code, hdr.Get("Content-Type"), body, want.Bytes())
		}
	}
}

// maxWarmHitAllocs bounds the allocations of a warm /v1/run hit through
// Handler into a recorder. The request path (query parse, cache key, ETag,
// headers, recorder) allocates about 19 times; the body, stored at the
// miss, adds none. Encoding the body per hit costs more than the bound,
// and more again for a larger table.
const maxWarmHitAllocs = 25

// TestWarmHitAllocs: a warm hit allocates the same for a 5-row and a
// 500-row table, and no more than maxWarmHitAllocs.
func TestWarmHitAllocs(t *testing.T) {
	hit := func(rows int) (allocs float64, size int) {
		h := New(&stubLab{rows: rows}, Options{}).Handler()
		req := httptest.NewRequest(http.MethodGet, "/v1/run?id=E1&seed=3&quick=1", nil)
		h.ServeHTTP(httptest.NewRecorder(), req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("warm request = %d X-Cache %q, want a 200 hit", rec.Code, rec.Header().Get("X-Cache"))
		}
		return testing.AllocsPerRun(200, func() { h.ServeHTTP(httptest.NewRecorder(), req) }), rec.Body.Len()
	}
	small, smallSize := hit(5)
	large, largeSize := hit(500)
	t.Logf("warm hit: %v allocs for a %d-byte body, %v for %d bytes", small, smallSize, large, largeSize)
	if small != large || large > maxWarmHitAllocs {
		t.Fatalf("warm hit allocs = %v (%d-byte body) and %v (%d-byte body), want equal and at most %d",
			small, smallSize, large, largeSize, maxWarmHitAllocs)
	}
}
