package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"tenways/internal/core"
	"tenways/internal/machine"
	"tenways/internal/obs"
	"tenways/internal/report"
	"tenways/internal/trace"
	"tenways/internal/tune"
)

// Handler returns the daemon's routing table:
//
//	GET  /healthz          liveness probe
//	GET  /metrics          the daemon's obs.Snapshot (json; ?format=text)
//	GET  /v1/experiments   the experiment catalog
//	GET  /v1/run           run one experiment (?id, ?machine, ?seed, ?quick,
//	                       ?format, ?timeout) through cache + coalescing +
//	                       admission; sets a per-format ETag and answers
//	                       If-None-Match revalidations with a bodyless 304
//	GET  /v1/runall        run many experiments (?ids=F1,F2,... or the whole
//	                       suite) through the same per-experiment path
//	POST /v1/diagnose      map a trace breakdown to waste modes
//	GET  /v1/tune          tune one remedy parameter (?id, ?machine, ?quick)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/runall", s.handleRunAll)
	mux.HandleFunc("POST /v1/diagnose", s.handleDiagnose)
	mux.HandleFunc("GET /v1/tune", s.handleTune)
	return mux
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(blob, '\n'))
}

func (s *Server) writeErr(w http.ResponseWriter, status int, msg string) {
	if status >= http.StatusInternalServerError {
		s.errs.Inc()
	}
	writeJSON(w, status, apiError{Error: msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleMetrics renders the daemon registry. Scrapes do not count
// themselves into serve.requests, so an idle daemon's /metrics is
// byte-stable across consecutive scrapes.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	s.reg.Gauge("serve.queue_depth").Set(float64(s.adm.queued()))
	s.reg.Gauge("serve.inflight").Set(float64(s.adm.running()))
	s.reg.Gauge("serve.coalesce_waiting").Set(float64(s.flight.waiters()))
	s.reg.Gauge("serve.cache_entries").Set(float64(st.Len))
	s.reg.Gauge("serve.cache_evictions").Set(float64(st.Evictions))
	s.reg.Gauge("serve.cache_hit_ratio").Set(st.HitRatio())
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, snap.String())
		io.WriteString(w, "\n")
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// experimentInfo is one /v1/experiments entry.
type experimentInfo struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	Measured bool   `json:"measured,omitempty"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	s.reqs.Inc()
	exps := s.lab.Experiments()
	out := make([]experimentInfo, 0, len(exps))
	for _, e := range exps {
		out = append(out, experimentInfo{ID: e.ID, Title: e.Title, Measured: e.Measured})
	}
	writeJSON(w, http.StatusOK, out)
}

// runEntry is the cached unit of work for /v1/run: the experiment output
// plus the run's own metrics snapshot and wall time.
type runEntry struct {
	Output  core.Output
	Metrics obs.Snapshot
	WallMS  float64
	// Hash fingerprints Output+Metrics once at creation; handleRun derives
	// the ETag from it, so revalidation never re-serialises the entry.
	Hash string
}

// hashEntry fingerprints the stable content of a run entry. WallMS and the
// transport fields (Cached, Coalesced) are deliberately excluded: serving
// the same cached entity again must yield the same validator even though
// those bookkeeping fields differ per response.
func hashEntry(e *runEntry) string {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	enc.Encode(e.Output)
	enc.Encode(e.Metrics)
	return strconv.FormatUint(h.Sum64(), 16)
}

// etagFor is the strong validator for one entry rendered in one format.
// The format is part of the tag because the same cached entry serves every
// rendering, and a client that revalidates its text copy must not get a
// 304 for the JSON body it never saw.
func etagFor(ent *runEntry, format string) string {
	if format == "" {
		format = "json"
	}
	return `"` + ent.Hash + "-" + format + `"`
}

// ifNoneMatchHas reports whether an If-None-Match header names the tag.
// Weak-comparison per RFC 9110 §8.8.3.2: a W/ prefix on the client's copy
// still matches, and "*" matches any current representation.
func ifNoneMatchHas(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if part != "" && (part == "*" || part == etag) {
			return true
		}
	}
	return false
}

// runResponse is the /v1/run JSON body.
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

// reqParams are the run-shaped query parameters shared by /v1/run and
// /v1/tune.
type reqParams struct {
	spec    *machine.Spec
	seed    uint64
	quick   bool
	timeout time.Duration
}

// params parses machine/seed/quick/timeout, writing the 400 itself on
// malformed input.
func (s *Server) params(w http.ResponseWriter, r *http.Request) (reqParams, bool) {
	q := r.URL.Query()
	p := reqParams{timeout: s.opts.DefaultTimeout}
	name := q.Get("machine")
	if name == "" {
		name = s.opts.Machine
	}
	if p.spec = machine.Preset(name); p.spec == nil {
		s.writeErr(w, http.StatusBadRequest, "unknown machine "+strconv.Quote(name))
		return p, false
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, "bad seed "+strconv.Quote(v))
			return p, false
		}
		p.seed = seed
	}
	if v := q.Get("quick"); v != "" {
		quick, err := strconv.ParseBool(v)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, "bad quick "+strconv.Quote(v))
			return p, false
		}
		p.quick = quick
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			s.writeErr(w, http.StatusBadRequest, "bad timeout "+strconv.Quote(v))
			return p, false
		}
		if d > s.opts.MaxTimeout {
			d = s.opts.MaxTimeout
		}
		p.timeout = d
	}
	return p, true
}

// runKey builds the result-cache / coalescing key for a run request. The
// format parameter is deliberately absent: rendering is cheap, so one
// cached result serves every format.
func runKey(m string, id string, seed uint64, quick bool) string {
	return "run|" + m + "|" + id + "|" + strconv.FormatUint(seed, 10) + "|" + strconv.FormatBool(quick)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	id := r.URL.Query().Get("id")
	if id == "" {
		s.writeErr(w, http.StatusBadRequest, "missing id parameter")
		return
	}
	e, err := s.lab.Get(id)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	p, ok := s.params(w, r)
	if !ok {
		return
	}
	format := r.URL.Query().Get("format")
	var renderer report.Renderer
	if format != "" && format != "json" {
		if renderer, err = report.RendererByName(format); err != nil {
			s.writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), p.timeout)
	defer cancel()
	key := runKey(p.spec.Name, e.ID, p.seed, p.quick)
	cfg := core.Config{Machine: p.spec, Quick: p.quick, Seed: p.seed}
	ent, cached, coalesced, err := s.runShared(ctx, key, e.ID, cfg)
	if err != nil {
		s.writeRunErr(w, err)
		return
	}
	w.Header().Set("X-Cache", cacheHeader(cached))
	etag := etagFor(ent, format)
	w.Header().Set("ETag", etag)
	if ifNoneMatchHas(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	resp := runResponse{
		ID:        e.ID,
		Title:     e.Title,
		Machine:   p.spec.Name,
		Seed:      p.seed,
		Quick:     p.quick,
		Cached:    cached,
		Coalesced: coalesced,
		WallMS:    ent.WallMS,
		Table:     ent.Output.Table,
		Figure:    ent.Output.Figure,
		Metrics:   ent.Metrics,
	}
	if renderer != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := ent.Output.RenderWith(w, renderer); err != nil {
			s.errs.Inc()
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// runAllRecord is one experiment's entry in a /v1/runall response.
type runAllRecord struct {
	ID        string         `json:"id"`
	Title     string         `json:"title"`
	Cached    bool           `json:"cached"`
	Coalesced bool           `json:"coalesced,omitempty"`
	WallMS    float64        `json:"wall_ms"`
	Error     string         `json:"error,omitempty"`
	Table     *report.Table  `json:"table,omitempty"`
	Figure    *report.Figure `json:"figure,omitempty"`
}

// runAllResponse is the /v1/runall JSON body.
type runAllResponse struct {
	Machine string         `json:"machine"`
	Seed    uint64         `json:"seed,omitempty"`
	Quick   bool           `json:"quick,omitempty"`
	Failed  int            `json:"failed"`
	Results []runAllRecord `json:"results"`
}

// handleRunAll runs a set of experiments (?ids=F1,F2,... — default the whole
// suite) through exactly the per-experiment path /v1/run uses: each id gets
// its own cache key, coalescing flight, and admission slot, so a runall
// neither bypasses the result cache nor holds more than one slot at a time.
// Per-experiment failures are recorded softly in the response; only a spent
// request deadline stops the sweep, with the unreached experiments reported
// as such.
func (s *Server) handleRunAll(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	p, ok := s.params(w, r)
	if !ok {
		return
	}
	var exps []core.Experiment
	if v := r.URL.Query().Get("ids"); v != "" {
		for _, id := range strings.Split(v, ",") {
			e, err := s.lab.Get(strings.TrimSpace(id))
			if err != nil {
				s.writeErr(w, http.StatusNotFound, err.Error())
				return
			}
			exps = append(exps, e)
		}
	} else {
		exps = s.lab.Experiments()
	}
	format := r.URL.Query().Get("format")
	var renderer report.Renderer
	if format != "" && format != "json" {
		var err error
		if renderer, err = report.RendererByName(format); err != nil {
			s.writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), p.timeout)
	defer cancel()
	resp := runAllResponse{Machine: p.spec.Name, Seed: p.seed, Quick: p.quick,
		Results: make([]runAllRecord, 0, len(exps))}
	cfg := core.Config{Machine: p.spec, Quick: p.quick, Seed: p.seed}
	for i, e := range exps {
		rec := runAllRecord{ID: e.ID, Title: e.Title}
		if err := ctx.Err(); err != nil {
			// Deadline spent: report this and every remaining experiment as
			// unreached rather than serving a silently truncated sweep.
			for _, rest := range exps[i:] {
				resp.Results = append(resp.Results, runAllRecord{
					ID: rest.ID, Title: rest.Title, Error: "not run: " + err.Error()})
				resp.Failed++
			}
			break
		}
		key := runKey(p.spec.Name, e.ID, p.seed, p.quick)
		ent, cached, coalesced, err := s.runShared(ctx, key, e.ID, cfg)
		if err != nil {
			rec.Error = err.Error()
			resp.Failed++
		} else {
			rec.Cached = cached
			rec.Coalesced = coalesced
			rec.WallMS = ent.WallMS
			rec.Table = ent.Output.Table
			rec.Figure = ent.Output.Figure
		}
		resp.Results = append(resp.Results, rec)
	}

	if renderer != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, rec := range resp.Results {
			fmt.Fprintf(w, "== %s: %s\n", rec.ID, rec.Title)
			if rec.Error != "" {
				fmt.Fprintf(w, "error: %s\n\n", rec.Error)
				continue
			}
			out := core.Output{Table: rec.Table, Figure: rec.Figure}
			if err := out.RenderWith(w, renderer); err != nil {
				s.errs.Inc()
				return
			}
			fmt.Fprintln(w)
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// runShared is the shared request path: result cache, then singleflight
// coalescing, then the bounded admission queue, then the lab itself.
func (s *Server) runShared(ctx context.Context, key, id string, cfg core.Config) (ent *runEntry, cached, coalesced bool, err error) {
	if v, ok := s.cache.Get(key); ok {
		s.hits.Inc()
		return v.(*runEntry), true, false, nil
	}
	s.misses.Inc()
	v, coalesced, err := s.flight.do(ctx, key, func() (any, error) {
		release, waited, err := s.adm.acquire(ctx)
		s.queueWait.Observe(waited.Seconds())
		if err != nil {
			return nil, err
		}
		defer release()
		reg := obs.NewRegistry()
		cfg.Obs = reg
		stop := s.runSec.Start()
		out, err := s.lab.RunContext(ctx, id, cfg)
		wall := stop()
		if err != nil {
			return nil, err
		}
		e := &runEntry{Output: out, Metrics: reg.Snapshot(), WallMS: float64(wall) / float64(time.Millisecond)}
		e.Hash = hashEntry(e)
		s.cache.Put(key, e)
		return e, nil
	})
	if coalesced {
		s.coalesced.Inc()
	}
	if err != nil {
		return nil, false, coalesced, err
	}
	return v.(*runEntry), false, coalesced, nil
}

// writeRunErr maps request-path errors to status codes: queue overflow to
// 429 + Retry-After, deadline to 504, client cancellation to 499-ish 503.
func (s *Server) writeRunErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		s.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "admission queue full; retry later"})
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		writeJSON(w, http.StatusGatewayTimeout, apiError{Error: "request deadline exceeded"})
	case errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "request cancelled"})
	default:
		s.writeErr(w, http.StatusInternalServerError, err.Error())
	}
}

// retryAfterSeconds estimates when a rejected caller should retry: the
// mean observed run time, scaled by the queue the caller would sit behind,
// clamped to [1s, 60s]. With no completed runs yet it answers 1.
func (s *Server) retryAfterSeconds() int {
	h := s.reg.Histogram("serve.run_seconds")
	n := h.Count()
	if n == 0 {
		return 1
	}
	mean := h.Sum() / float64(n)
	backlog := float64(s.adm.queued())/float64(s.opts.Parallel) + 1
	sec := int(math.Ceil(mean * backlog))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// diagnoseRequest is the /v1/diagnose POST body: per-worker seconds by
// trace category name (compute, sync-wait, comm-wait, steal, serial, idle,
// noise). A single entry diagnoses aggregate fractions only; several
// entries also expose load imbalance.
type diagnoseRequest struct {
	Workers []map[string]float64 `json:"workers"`
	// Tuned concretises matched remedies with the autotuner's parameter
	// choice for the requested machine (slower: it runs the tuner).
	Tuned bool `json:"tuned,omitempty"`
	// Quick shrinks the tuned problem models.
	Quick bool `json:"quick,omitempty"`
	// Machine names the preset Tuned tunes for; empty selects the server
	// default.
	Machine string `json:"machine,omitempty"`
}

// adviceResponse is one diagnosed waste mode, JSON-shaped.
type adviceResponse struct {
	ModeID   string  `json:"mode"`
	Name     string  `json:"name"`
	Severity float64 `json:"severity"`
	Evidence string  `json:"evidence"`
	Remedy   string  `json:"remedy"`
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	var req diagnoseRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, "bad body: "+err.Error())
		return
	}
	if len(req.Workers) == 0 {
		s.writeErr(w, http.StatusBadRequest, "need at least one workers entry")
		return
	}
	byName := make(map[string]trace.Category, len(trace.Categories()))
	for _, c := range trace.Categories() {
		byName[c.String()] = c
	}
	var b trace.Breakdown
	b.PerWorker = make([]trace.WorkerTimes, len(req.Workers))
	for i, wm := range req.Workers {
		names := make([]string, 0, len(wm))
		for name := range wm {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c, ok := byName[name]
			if !ok {
				s.writeErr(w, http.StatusBadRequest,
					"unknown category "+strconv.Quote(name)+" (known: "+categoryNames()+")")
				return
			}
			d := time.Duration(wm[name] * float64(time.Second))
			b.PerWorker[i].ByCategory[c] += d
			b.Total[c] += d
		}
	}
	var (
		advice []core.Advice
		err    error
	)
	if req.Tuned {
		name := req.Machine
		if name == "" {
			name = s.opts.Machine
		}
		spec := machine.Preset(name)
		if spec == nil {
			s.writeErr(w, http.StatusBadRequest, "unknown machine "+strconv.Quote(name))
			return
		}
		// Tuning is real work: go through admission like a run.
		release, waited, aerr := s.adm.acquire(r.Context())
		s.queueWait.Observe(waited.Seconds())
		if aerr != nil {
			s.writeRunErr(w, aerr)
			return
		}
		advice, err = core.DiagnoseOn(b, spec, req.Quick)
		release()
		if err != nil {
			s.writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
	} else {
		advice = core.Diagnose(b)
	}
	out := make([]adviceResponse, 0, len(advice))
	for _, a := range advice {
		out = append(out, adviceResponse(a))
	}
	writeJSON(w, http.StatusOK, out)
}

func categoryNames() string {
	cats := trace.Categories()
	names := make([]string, 0, len(cats))
	for _, c := range cats {
		names = append(names, c.String())
	}
	return strings.Join(names, ", ")
}

// tuneResponse is the /v1/tune JSON body.
type tuneResponse struct {
	ID          string  `json:"id"`
	Title       string  `json:"title"`
	Machine     string  `json:"machine"`
	Quick       bool    `json:"quick,omitempty"`
	Cached      bool    `json:"cached"`
	Strategy    string  `json:"strategy"`
	Default     string  `json:"default"`
	DefaultCost float64 `json:"default_cost_s"`
	Tuned       string  `json:"tuned"`
	TunedCost   float64 `json:"tuned_cost_s"`
	Evaluations int     `json:"evaluations"`
	CacheHits   int     `json:"cache_hits"`
	SavingPct   float64 `json:"saving_pct"`
	WallMS      float64 `json:"wall_ms"`
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	id := r.URL.Query().Get("id")
	if id == "" {
		s.writeErr(w, http.StatusBadRequest, "missing id parameter")
		return
	}
	p, ok := s.params(w, r)
	if !ok {
		return
	}
	tn, err := tune.ByID(id, p.quick)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.timeout)
	defer cancel()
	key := "tune|" + p.spec.Name + "|" + tn.ID + "|" + strconv.FormatBool(p.quick)
	ent, cached, coalesced, err := s.tuneShared(ctx, key, tn, p)
	if err != nil {
		s.writeRunErr(w, err)
		return
	}
	w.Header().Set("X-Cache", cacheHeader(cached))
	resp := *ent
	resp.Cached = cached
	_ = coalesced
	writeJSON(w, http.StatusOK, resp)
}

// tuneShared runs one tunable search through the same cache + coalescing +
// admission path as /v1/run.
func (s *Server) tuneShared(ctx context.Context, key string, tn tune.Tunable, p reqParams) (ent *tuneResponse, cached, coalesced bool, err error) {
	if v, ok := s.cache.Get(key); ok {
		s.hits.Inc()
		return v.(*tuneResponse), true, false, nil
	}
	s.misses.Inc()
	v, coalesced, err := s.flight.do(ctx, key, func() (any, error) {
		release, waited, err := s.adm.acquire(ctx)
		s.queueWait.Observe(waited.Seconds())
		if err != nil {
			return nil, err
		}
		defer release()
		stop := s.runSec.Start()
		res, err := tn.Tune(p.spec, tune.Options{Cache: s.tuneCache, Obs: s.reg})
		if err != nil {
			stop()
			return nil, err
		}
		def, err := tn.Objective(p.spec)(tn.Default)
		wall := stop()
		if err != nil {
			return nil, err
		}
		saving := 0.0
		if def.Seconds > 0 {
			saving = 100 * (1 - res.Best.Cost.Seconds/def.Seconds)
		}
		e := &tuneResponse{
			ID:          tn.ID,
			Title:       tn.Title,
			Machine:     p.spec.Name,
			Quick:       p.quick,
			Strategy:    res.Strategy,
			Default:     tn.DefaultLabel(),
			DefaultCost: def.Seconds,
			Tuned:       res.Describe(),
			TunedCost:   res.Best.Cost.Seconds,
			Evaluations: res.Evaluations,
			CacheHits:   res.CacheHits,
			SavingPct:   saving,
			WallMS:      float64(wall) / float64(time.Millisecond),
		}
		s.cache.Put(key, e)
		return e, nil
	})
	if coalesced {
		s.coalesced.Inc()
	}
	if err != nil {
		return nil, false, coalesced, err
	}
	return v.(*tuneResponse), false, coalesced, nil
}
