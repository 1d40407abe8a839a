package sim_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"tenways/internal/core"
	"tenways/internal/report"
	"tenways/internal/serve"
	"tenways/internal/serve/sim"
)

// gateLab is a serve.Lab with one experiment, E1, whose run for seed k
// starts, records k, and finishes only when the test releases k or stops.
type gateLab struct {
	mu      sync.Mutex
	started []string                 // keys in the order their runs began
	gates   map[string]chan struct{} // running key -> its release
	stop    chan struct{}            // closed at the end of the test
}

func (l *gateLab) Experiments() []core.Experiment {
	return []core.Experiment{{ID: "E1", Title: "replay stub", Run: l.run}}
}

func (l *gateLab) Get(id string) (core.Experiment, error) {
	if id != "E1" {
		return core.Experiment{}, errors.New("unknown experiment " + id)
	}
	return l.Experiments()[0], nil
}

// run is E1's Run.
func (l *gateLab) run(ctx context.Context, cfg core.Config) (core.Output, error) {
	key := strconv.FormatUint(cfg.Seed, 10)
	gate := make(chan struct{})
	l.mu.Lock()
	l.started = append(l.started, key)
	l.gates[key] = gate
	l.mu.Unlock()
	select {
	case <-gate:
	case <-l.stop:
	case <-ctx.Done():
		return core.Output{}, ctx.Err()
	}
	return core.Output{Table: report.NewTable("E1", "replay stub", "key")}, nil
}

// release lets the running evaluation of key finish.
func (l *gateLab) release(key string) bool {
	l.mu.Lock()
	gate, ok := l.gates[key]
	delete(l.gates, key)
	l.mu.Unlock()
	if ok {
		close(gate)
	}
	return ok
}

// last returns the number of runs started and the key of the latest.
func (l *gateLab) last() (int, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.started) == 0 {
		return 0, ""
	}
	return len(l.started), l.started[len(l.started)-1]
}

// request is one replayed /v1/run call, answered when done closes.
type request struct {
	key  string
	rec  *httptest.ResponseRecorder
	done chan struct{}
}

func (q *request) answered() bool {
	select {
	case <-q.done:
		return true
	default:
		return false
	}
}

// state is what the test can see of the daemon between steps.
type state struct {
	started  int // lab runs begun
	queued   int // serve.queue_depth
	waiting  int // serve.coalesce_waiting
	answered int // replayed requests with a response
}

type replay struct {
	t    *testing.T
	h    http.Handler
	lab  *gateLab
	reqs []*request
}

// issue sends sim key k as /v1/run?id=E1&seed=k on its own goroutine.
func (r *replay) issue(key string) *request {
	q := &request{key: key, rec: httptest.NewRecorder(), done: make(chan struct{})}
	req := httptest.NewRequest(http.MethodGet, "/v1/run?id=E1&seed="+key, nil)
	go func() {
		defer close(q.done)
		r.h.ServeHTTP(q.rec, req)
	}()
	r.reqs = append(r.reqs, q)
	return q
}

func (r *replay) observe() state {
	var s state
	s.started, _ = r.lab.last()
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		r.t.Fatalf("bad /metrics body: %v", err)
	}
	s.queued = int(snap.Gauges["serve.queue_depth"])
	s.waiting = int(snap.Gauges["serve.coalesce_waiting"])
	for _, q := range r.reqs {
		if q.answered() {
			s.answered++
		}
	}
	return s
}

// settle waits until the daemon shows want, failing with what it shows
// instead if it does not within two seconds.
func (r *replay) settle(step int, d sim.Decision, want state) {
	r.t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := r.observe()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("step %d, sim %q key %s: daemon shows %+v, want %+v", step, d.What, d.Key, got, want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// body decodes the fields of a /v1/run response the replay compares.
func body(t *testing.T, q *request) (cached, coalesced bool) {
	t.Helper()
	var b struct{ Cached, Coalesced bool }
	if err := json.Unmarshal(q.rec.Body.Bytes(), &b); err != nil {
		t.Fatalf("key %s: bad body %q: %v", q.key, q.rec.Body.Bytes(), err)
	}
	return b.Cached, b.Coalesced
}

// replayConfig is a run in which every request-path outcome occurs: two
// workers and two queue places under eight bursty clients, and a catalog
// of 40 keys, under the daemon's 64 entries per cache shard, so that
// neither cache evicts.
func replayConfig() sim.Config {
	jobs := make([]sim.Job, 40)
	for i := range jobs {
		jobs[i] = sim.Job{Key: strconv.Itoa(i), Service: 0.04 + 0.004*float64(i), Weight: 1 / float64(i+1)}
	}
	return sim.Config{
		Seed: 3, Clients: 8, Requests: 150, Workers: 2, QueueDepth: 2,
		CacheSize: 1024, Coalesce: true, Catalog: jobs,
	}
}

// TestDaemonReplaysSimDecisions drives a real serve.Server through a
// simulated run's decisions in order and checks that the daemon decides
// every request as the simulator did: hit, run, queued-then-run, coalesced
// or 429, and which queued request starts when a worker frees.
func TestDaemonReplaysSimDecisions(t *testing.T) {
	cfg := replayConfig()
	_, decisions, err := sim.Trace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab := &gateLab{gates: make(map[string]chan struct{}), stop: make(chan struct{})}
	t.Cleanup(func() { close(lab.stop) }) // a failed replay leaves no run blocked
	srv := serve.New(lab, serve.Options{Parallel: cfg.Workers, QueueDepth: cfg.QueueDepth, CacheSize: cfg.CacheSize})
	r := &replay{t: t, h: srv.Handler(), lab: lab}
	// Each key's current flight: its leader and coalesced followers.
	type flight struct {
		leader    *request
		followers []*request
	}
	flights := make(map[string]*flight)
	seen := make(map[string]int)
	var want state
	for i := 0; i < len(decisions); i++ {
		d := decisions[i]
		seen[d.What]++
		switch d.What {
		case "hit", "reject":
			q := r.issue(d.Key)
			want.answered++
			r.settle(i, d, want)
			code, hit := q.rec.Code, q.rec.Header().Get("X-Cache") == "hit"
			if d.What == "hit" && (code != http.StatusOK || !hit) || d.What == "reject" && code != http.StatusTooManyRequests {
				t.Fatalf("step %d key %s: sim %q, daemon answered %d (X-Cache hit %v)", i, d.Key, d.What, code, hit)
			}
		case "run", "queue":
			flights[d.Key] = &flight{leader: r.issue(d.Key)}
			if d.What == "run" {
				want.started++
			} else {
				want.queued++
			}
			r.settle(i, d, want)
			if _, key := lab.last(); d.What == "run" && key != d.Key {
				t.Fatalf("step %d: sim runs key %s, daemon ran %s", i, d.Key, key)
			}
		case "coalesced":
			fl := flights[d.Key]
			fl.followers = append(fl.followers, r.issue(d.Key))
			want.waiting++
			r.settle(i, d, want)
		case "done":
			fl := flights[d.Key]
			delete(flights, d.Key)
			if !lab.release(d.Key) {
				t.Fatalf("step %d: sim finishes key %s, which the daemon is not running", i, d.Key)
			}
			want.answered += 1 + len(fl.followers)
			want.waiting -= len(fl.followers)
			// The freed worker goes straight to the queued request the
			// simulator starts next, if any.
			next := ""
			if i+1 < len(decisions) && decisions[i+1].What == "start" {
				i++
				next = decisions[i].Key
				seen["start"]++
				want.started++
				want.queued--
			}
			r.settle(i, d, want)
			for _, q := range append([]*request{fl.leader}, fl.followers...) {
				cached, coalesced := body(t, q)
				if q.rec.Code != http.StatusOK || cached || coalesced != (q != fl.leader) {
					t.Fatalf("step %d key %s: answered %d cached %v coalesced %v; want 200, a miss, coalesced only for followers",
						i, d.Key, q.rec.Code, cached, coalesced)
				}
			}
			if _, key := lab.last(); next != "" && key != next {
				t.Fatalf("step %d: sim starts queued key %s, daemon started %s", i, next, key)
			}
		default:
			t.Fatalf("step %d: unexpected decision %q", i, d.What)
		}
	}
	if len(flights) != 0 || want.queued != 0 || want.waiting != 0 || want.answered != len(r.reqs) {
		t.Fatalf("replay ended with %d flights and state %+v for %d requests", len(flights), want, len(r.reqs))
	}
	for _, what := range []string{"hit", "run", "queue", "start", "coalesced", "reject"} {
		if seen[what] == 0 {
			t.Errorf("no %q decision in the replay; pick a seed or sizes that show every outcome (saw %v)", what, seen)
		}
	}
}
