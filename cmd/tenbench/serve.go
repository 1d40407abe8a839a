package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tenways/internal/core"
	"tenways/internal/obs"
	"tenways/internal/serve"
	"tenways/internal/workload"
)

// cheapIDs are the experiments serve-mix requests: each runs in a few
// milliseconds, so a rep gathers hundreds of miss samples.
var cheapIDs = []string{"F4", "F6", "F15", "F18", "F21", "F22", "F23", "F24", "F25", "T6", "T8", "T12"}

// keySeeds is how many seeds each cheap experiment is requested with.
const keySeeds = 64

// keyStream is one rep's request sequence over len(cheapIDs)*keySeeds
// keys. The key of popularity rank i (from 0) is drawn with weight
// 1/(i+1), the weights of T12's request catalogue (Zipf with s = 1); the
// popularity order is shuffled by the seed. No measured daemon traffic
// exists, so this mix is an assumption; the hit share each rep measures
// under it is in the results file.
type keyStream struct {
	paths []string // per key: the /v1/run request path
	ids   []string // per key: the experiment id the response must name
	seeds []uint64 // per key: the seed the response must name
	reqs  []int32  // per request: its key
}

func newKeyStream(seed uint64, n int) *keyStream {
	nk := len(cheapIDs) * keySeeds
	ks := &keyStream{paths: make([]string, nk), ids: make([]string, nk), seeds: make([]uint64, nk), reqs: make([]int32, n)}
	for i, id := range cheapIDs {
		for s := 0; s < keySeeds; s++ {
			k := i*keySeeds + s
			ks.ids[k], ks.seeds[k] = id, uint64(s+1)
			ks.paths[k] = "/v1/run?quick=1&id=" + id + "&seed=" + strconv.Itoa(s+1)
		}
	}
	cdf := make([]float64, nk)
	acc := 0.0
	for k := range cdf {
		acc += 1 / float64(k+1)
		cdf[k] = acc
	}
	rng := workload.NewRand(seed)
	byRank := rng.Perm(nk)
	for i := range ks.reqs {
		k := sort.SearchFloat64s(cdf, rng.Float64()*acc)
		if k >= nk {
			k = nk - 1
		}
		ks.reqs[i] = int32(byRank[k])
	}
	return ks
}

// serveStats is what one pass of a key stream through a fresh server
// measured.
type serveStats struct {
	hitUS, missMS []float64 // sorted per-request latencies
	respBytes     int64
	failed        int
	server        obs.Snapshot
}

// wallKey starts the part of a /v1/run body that comes from the cached
// entry: wall_ms, table, figure and metrics. A hit must repeat it byte for
// byte; only the cached and coalesced flags before it may differ.
var wallKey = []byte(`"wall_ms"`)

// serveOnce sends every request of ks from e.procs closed-loop clients,
// each sending its next request when the previous response is read, to a
// fresh daemon over one transport capped at e.procs connections. Every
// response to a key must repeat the cached part of the key's first.
func serveOnce(e *env, ks *keyStream) (serveStats, sample, error) {
	bodies := make([]atomic.Pointer[[]byte], len(ks.paths))
	srv := serve.New(core.NewLab(), serve.Options{Parallel: e.procs})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tr := &http.Transport{MaxConnsPerHost: e.procs, MaxIdleConnsPerHost: e.procs}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	type clientStats struct {
		hitUS, missMS []float64
		bytes         int64
		failed        int
		err           error
	}
	per := make([]clientStats, e.procs)
	var next atomic.Int64
	s, _ := measure(func() error {
		var wg sync.WaitGroup
		for c := range per {
			wg.Add(1)
			go func(cs *clientStats) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(ks.reqs) {
						return
					}
					k := ks.reqs[i]
					lat, hit, n, err := request(e.tracer, client, ts.URL, ks, k, bodies)
					cs.bytes += n
					switch {
					case err != nil:
						cs.failed++
						if cs.err == nil {
							cs.err = err
						}
					case hit:
						cs.hitUS = append(cs.hitUS, lat*1e6)
					default:
						cs.missMS = append(cs.missMS, lat*1e3)
					}
				}
			}(&per[c])
		}
		wg.Wait()
		return nil
	})
	var st serveStats
	var firstErr error
	for _, cs := range per {
		st.hitUS = append(st.hitUS, cs.hitUS...)
		st.missMS = append(st.missMS, cs.missMS...)
		st.respBytes += cs.bytes
		st.failed += cs.failed
		if firstErr == nil {
			firstErr = cs.err
		}
	}
	sort.Float64s(st.hitUS)
	sort.Float64s(st.missMS)
	st.server = srv.Metrics().Snapshot()
	s.attempted, s.failed = len(ks.reqs), st.failed
	if firstErr != nil {
		firstErr = fmt.Errorf("%d of %d requests failed, first: %w", st.failed, len(ks.reqs), firstErr)
	}
	return st, s, firstErr
}

// request sends one GET and checks the response: status 200, a known
// X-Cache verdict, and a body whose cached part equals the key's first.
// The latency covers sending the request and reading the whole body.
func request(tr *tracer, client *http.Client, base string, ks *keyStream, k int32, bodies []atomic.Pointer[[]byte]) (lat float64, hit bool, n int64, err error) {
	_, end := tr.begin("serve.request", 0)
	t0 := time.Now()
	resp, err := client.Get(base + ks.paths[k])
	if err != nil {
		end()
		return 0, false, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(t0).Seconds()
	end()
	n = int64(len(body))
	if err != nil {
		return lat, false, n, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, false, n, fmt.Errorf("%s: status %d: %s", ks.paths[k], resp.StatusCode, bytes.TrimSpace(body))
	}
	switch xc := resp.Header.Get("X-Cache"); xc {
	case "hit":
		hit = true
	case "miss":
	default:
		return lat, false, n, fmt.Errorf("%s: X-Cache %q", ks.paths[k], xc)
	}
	return lat, hit, n, checkBody(ks, k, body, bodies)
}

// checkBody compares a response's cached part with the key's first one.
// The first response to a key is decoded once to check that it names the
// requested experiment and seed.
func checkBody(ks *keyStream, k int32, body []byte, bodies []atomic.Pointer[[]byte]) error {
	i := bytes.Index(body, wallKey)
	if i < 0 {
		return fmt.Errorf("%s: body has no %s field", ks.paths[k], wallKey)
	}
	part := body[i:]
	if bodies[k].CompareAndSwap(nil, &part) {
		var head struct {
			ID   string `json:"id"`
			Seed uint64 `json:"seed"`
		}
		if err := json.Unmarshal(body, &head); err != nil {
			return fmt.Errorf("%s: %w", ks.paths[k], err)
		}
		if head.ID != ks.ids[k] || head.Seed != ks.seeds[k] {
			return fmt.Errorf("%s: response names %s seed %d", ks.paths[k], head.ID, head.Seed)
		}
		return nil
	}
	if !bytes.Equal(*bodies[k].Load(), part) {
		return fmt.Errorf("%s: body differs from the key's first response", ks.paths[k])
	}
	return nil
}

// serveWorkload is the daemon request path under a Zipf key mix: hits
// exercise the cache, JSON encoding and HTTP; misses, each key's first
// touch in a rep, exercise coalescing, admission and a lab run.
type serveWorkload struct {
	stream    *keyStream
	hitShares []string // per rep, warm-up first: hits over answered requests
}

func (w *serveWorkload) minReps() int { return 3 }
func (w *serveWorkload) warmups() int { return 1 }

// prepare draws the key stream and builds a daemon, the state a rep
// starts from.
func (w *serveWorkload) prepare(e *env) error {
	w.stream = newKeyStream(e.seed, e.scale.serveReqs)
	if serve.New(core.NewLab(), serve.Options{Parallel: e.procs}).Handler() == nil {
		return fmt.Errorf("serve: nil handler")
	}
	return nil
}

func (w *serveWorkload) reference(e *env) error { return nil }

func (w *serveWorkload) rep(e *env) (sample, error) {
	st, s, err := serveOnce(e, w.stream)
	hits, misses := len(st.hitUS), len(st.missMS)
	w.hitShares = append(w.hitShares, strconv.FormatFloat(float64(hits)/float64(max(hits+misses, 1)), 'f', 4, 64))
	s.extra = map[string]float64{}
	if v, ok := percentile(st.hitUS, 0.50); ok {
		s.extra["hit_p50_us"] = v
	}
	if v, ok := percentile(st.hitUS, 0.99); ok {
		s.extra["hit_p99_us"] = v
	}
	if v, ok := percentile(st.missMS, 0.50); ok {
		s.extra["miss_p50_ms"] = v
	}
	return s, err
}

// info reports the hit share every rep measured, since the key mix that
// sets it is assumed, not measured.
func (w *serveWorkload) info() map[string]string {
	return map[string]string{"serve.hit_share_per_rep": strings.Join(w.hitShares, " ")}
}
