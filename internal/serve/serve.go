// Package serve is the lab-as-a-service layer: a long-running HTTP/JSON
// daemon (cmd/wastelabd) that exposes the experiment registry, the
// diagnosis engine, and the autotuner to other systems — the paper
// abstract's "interactions with users or other systems" made first-class.
//
// The request path composes the repo's own remedies instead of the naive
// stack it warns about, in front of the lab runner's own per-experiment
// path (core.RunOne), which times and meters each run once and turns a
// panicking experiment into a 500:
//
//   - a sharded, LRU-bounded result cache
//     (internal/cache) keyed machine+experiment+params+seed, so repeated
//     identical requests are W2 (redundant work) that never happens twice;
//     an entry keeps its JSON body, rendered once by the run that made it,
//     so a warm hit writes stored bytes instead of encoding them again;
//   - a hand-rolled singleflight so N concurrent identical requests
//     coalesce into one lab evaluation (redundant *concurrent* work);
//   - a bounded admission queue feeding core.RunOne: Parallel slots
//     run, QueueDepth callers wait in FIFO order, and everyone past that
//     is rejected early with 429 + Retry-After rather than queued without
//     bound — load shedding applied to ourselves;
//   - per-request timeouts threaded through context;
//   - obs counters and histograms resolved once at startup (requests, hit
//     and miss counts, coalesce count, queue wait, run time), so the hot
//     path pays one atomic add per event and no registry lookup.
//
// The same policies are modeled deterministically in virtual time by
// internal/serve/sim, which experiment T12 uses to render the daemon's
// own waste modes with the suite's T-tables. The admission decision is
// sim.Admit, one function for both, and sim's replay test drives a Server
// through a simulated run to check that the two decide alike.
package serve

import (
	"time"

	"tenways/internal/cache"
	"tenways/internal/core"
	"tenways/internal/obs"
	"tenways/internal/tune"
)

// Lab is the experiment catalog the daemon serves; *core.Lab implements
// it, and tests substitute stubs. The daemon runs what Get resolves through
// core.RunOne, the lab runner's own per-experiment path, so a run is timed
// and metered once and a panicking experiment answers 500.
type Lab interface {
	// Experiments lists the registered experiments in registration order.
	Experiments() []core.Experiment
	// Get resolves an experiment id (case-insensitively).
	Get(id string) (core.Experiment, error)
}

// Options parameterises a Server. The zero value selects the defaults.
type Options struct {
	// Parallel bounds the lab runs executing concurrently; <= 0 selects 4.
	Parallel int
	// QueueDepth bounds the callers waiting for a slot beyond the running
	// ones; past it requests are rejected with 429. <= 0 selects 64.
	QueueDepth int
	// CacheSize bounds the result cache in entries; <= 0 selects 1024.
	CacheSize int
	// DefaultTimeout bounds a request that does not pick its own timeout;
	// <= 0 selects 2 minutes.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request ?timeout= parameter; <= 0 selects 10
	// minutes.
	MaxTimeout time.Duration
	// Machine is the default machine preset name for requests that do not
	// pick one; empty selects petascale2009.
	Machine string
	// Obs receives the daemon's own metrics (the serve.* instruments
	// rendered by /metrics); nil creates a fresh registry.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Parallel <= 0 {
		o.Parallel = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 10 * time.Minute
	}
	if o.Machine == "" {
		o.Machine = "petascale2009"
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	return o
}

// Server is the daemon state: the lab, the result cache, the in-flight
// coalescing table, the admission queue, and the instruments. Create one
// with New and mount Handler on an http.Server.
type Server struct {
	lab       Lab
	opts      Options
	reg       *obs.Registry
	cache     *cache.Cache[any]
	flight    *flight
	adm       *admission
	tuneCache *tune.Cache

	// Hot-path instruments, resolved once so request handling touches only
	// atomics.
	reqs, hits, misses, coalesced, rejected, timeouts, errs, notModified *obs.Counter
	queueWait, runSec                                                    *obs.Histogram
}

// New returns a Server over the lab. A nil lab selects core.NewLab().
func New(lab Lab, opts Options) *Server {
	if lab == nil {
		lab = core.NewLab()
	}
	opts = opts.withDefaults()
	reg := opts.Obs
	return &Server{
		lab:         lab,
		opts:        opts,
		reg:         reg,
		cache:       cache.New[any](opts.CacheSize, 0),
		flight:      newFlight(),
		adm:         newAdmission(opts.Parallel, opts.QueueDepth),
		tuneCache:   tune.NewCache(),
		reqs:        reg.Counter("serve.requests"),
		hits:        reg.Counter("serve.cache_hits"),
		misses:      reg.Counter("serve.cache_misses"),
		coalesced:   reg.Counter("serve.coalesced"),
		rejected:    reg.Counter("serve.rejected"),
		timeouts:    reg.Counter("serve.timeouts"),
		errs:        reg.Counter("serve.errors"),
		notModified: reg.Counter("serve.not_modified"),
		queueWait:   reg.Histogram("serve.queue_wait_seconds"),
		runSec:      reg.Histogram("serve.run_seconds"),
	}
}

// Metrics returns the daemon's registry (the one /metrics renders).
func (s *Server) Metrics() *obs.Registry { return s.reg }
