// Package sim is the daemon turned experiment: a deterministic,
// closed-loop load generator that drives the wastelabd request-path
// policies — result cache, request coalescing, bounded admission — in
// virtual time and measures the waste modes the daemon itself exhibits:
// idle workers (W10), queueing overhead (W3/W7 territory), and redundant
// work avoided or not by the cache (W2).
//
// The policies are the daemon's own: the cache is the very
// internal/cache implementation the server mounts (single-threaded use is
// deterministic), and the admission rule — run up to Workers, queue up to
// QueueDepth, reject the rest — is Admit, which serve.admission calls too.
// A replay test checks that a real serve.Server decides every request of
// a simulated run alike. That holds while neither cache evicts: this
// cache is one LRU list, the daemon's one per shard, and the two can evict
// different keys. What differs is the clock: the simulated daemon runs as
// one rank of the pdes engine, the repository's one DES kernel, in seeded
// virtual time, so a fixed seed reproduces the run byte for byte
// regardless of host scheduling — the property experiment T12's tables
// need and a wall-clock benchmark cannot give.
//
// Arrivals are closed-loop and bursty: each simulated client issues a
// request, waits for its completion (or rejection), thinks for a seeded
// exponential time perturbed by a chaos.Bursty jitter injector — the
// abstract's "interactions with users or other systems" — and issues the
// next one.
package sim

import (
	"tenways/internal/cache"
	"tenways/internal/chaos"
	"tenways/internal/pdes"
	"tenways/internal/workload"
)

// Job is one entry of the request population: a cache key, the virtual
// service seconds one evaluation costs, and a popularity weight.
type Job struct {
	Key     string
	Service float64
	Weight  float64
}

// Config parameterises one simulated daemon run.
type Config struct {
	// Seed drives every random draw; same seed, same Stats.
	Seed uint64
	// Clients is the closed-loop population size.
	Clients int
	// Requests bounds the total requests issued across all clients.
	Requests int
	// Workers is the admission parallelism (serve.Options.Parallel).
	Workers int
	// QueueDepth bounds the waiters (serve.Options.QueueDepth).
	QueueDepth int
	// CacheSize bounds the result cache in entries; 0 disables caching.
	CacheSize int
	// Coalesce enables request coalescing of identical in-flight keys.
	Coalesce bool
	// Catalog is the request population; draws are weighted by popularity.
	Catalog []Job
}

// Verdict is the admission decision for an evaluation that is neither
// cached nor coalesced: Run now, Queue in FIFO order, or Reject (429).
type Verdict int

// The verdicts.
const (
	Run Verdict = iota
	Queue
	Reject
)

// Admit is the admission rule that serve.admission and the simulator both
// call, given the busy workers, the queued evaluations, and their bounds.
func Admit(running, waiting, workers, depth int) Verdict {
	if running < workers {
		return Run
	}
	if waiting < depth {
		return Queue
	}
	return Reject
}

// The client model's fixed parameters, in virtual seconds.
const (
	thinkMean  = 0.05          // mean think time between a client's requests
	retryAfter = 4 * thinkMean // client back-off after a 429
	burstFrac  = 0.5           // chaos.Bursty jitter fraction added to think times
)

// Stats is the outcome of one simulated run. All times are virtual
// seconds.
type Stats struct {
	Issued    int // requests issued, rejected ones included
	Served    int // requests answered (from cache, coalesced, or run)
	Rejected  int // 429s: admission queue full
	CacheHits int
	Coalesced int
	Runs      int     // underlying lab evaluations performed
	Makespan  float64 // time of the last answer, served or 429
	WaitSum   float64 // queue wait of admitted runs
	BusySum   float64 // worker-busy virtual seconds
}

// IdleFraction returns the fraction of worker capacity spent idle.
func (s Stats) IdleFraction(workers int) float64 {
	cap := float64(workers) * s.Makespan
	if cap <= 0 {
		return 0
	}
	f := 1 - s.BusySum/cap
	if f < 0 {
		return 0
	}
	return f
}

// HitRatio returns cache hits per issued request.
func (s Stats) HitRatio() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Issued)
}

// MeanWait returns the mean queue wait per underlying run.
func (s Stats) MeanWait() float64 {
	if s.Runs == 0 {
		return 0
	}
	return s.WaitSum / float64(s.Runs)
}

// Throughput returns served requests per virtual second.
func (s Stats) Throughput() float64 {
	if s.Makespan <= 0 {
		return 0
	}
	return float64(s.Served) / s.Makespan
}

// Event kinds. The simulated daemon is one pdes engine rank, so every
// event is a self-event of rank 0 and has Src 0: the engine's (Time, Src,
// Seq) order is virtual time first, then emission order. Step carries the
// issuing client, or the leader of the finishing flight.
const (
	kindIssue    int32 = iota // a client issues its next request
	kindComplete              // a running evaluation finishes
)

// flightState is one admitted-or-queued evaluation: the leading client
// plus every client coalesced onto it.
type flightState struct {
	job      Job
	leader   int
	waiters  []int
	enqueued float64 // when it entered the admission queue
}

// sim is the mutable world of one Simulate call and the engine's workload.
type sim struct {
	cfg     Config
	rng     *workload.Rand
	jitter  *chaos.Jitter
	sc      pdes.Sched // the engine's scheduler, valid while it runs an event
	cache   *cache.Cache[struct{}]
	inUse   map[string]*flightState // Coalesce: key -> in-flight evaluation
	running []*flightState          // by leader: the evaluation it runs
	queue   []*flightState          // admission FIFO
	busy    int
	cumW    []float64 // cumulative catalog weights for weighted draws
	totW    float64
	stats   Stats
	stopped bool // request budget exhausted; clients retire as they finish
	// note is told every request-path decision in order: an arrival's
	// "hit", "coalesced", "run", "queue" or "reject", and an evaluation's
	// "done", then "start" for the queued one it hands its worker to.
	// Only the replay test listens.
	note func(key, what string)
}

// Simulate runs the configured closed loop to completion and returns its
// statistics. Two calls with equal Config produce identical Stats. The
// error is the engine's: a handler panic, recovered by pdes.Run.
func Simulate(cfg Config) (Stats, error) { return simulateWith(cfg, func(_, _ string) {}) }

func simulateWith(cfg Config, note func(key, what string)) (Stats, error) {
	if cfg.Clients <= 0 || cfg.Requests <= 0 || cfg.Workers <= 0 || len(cfg.Catalog) == 0 {
		return Stats{}, nil
	}
	s := &sim{
		cfg:    cfg,
		rng:    workload.NewRand(cfg.Seed),
		jitter: chaos.NewJitter(chaos.Bursty, burstFrac, cfg.Seed+1, cfg.Clients),
		inUse:  make(map[string]*flightState),
		// A client leads at most one flight at a time: it waits for the
		// answer before it issues again.
		running: make([]*flightState, cfg.Clients),
		note:    note,
	}
	if cfg.CacheSize > 0 {
		// The daemon's own cache implementation, driven in virtual time.
		s.cache = cache.New[struct{}](cfg.CacheSize, 1)
	}
	s.cumW = make([]float64, len(cfg.Catalog))
	for i, j := range cfg.Catalog {
		w := j.Weight
		if w <= 0 {
			w = 1
		}
		s.totW += w
		s.cumW[i] = s.totW
	}
	// With one rank there are no cross-rank messages to bound, so the
	// lookahead only sets the window and ladder-bucket length.
	if _, err := pdes.Run(s, pdes.Config{Partitions: 1, Workers: 1, Lookahead: thinkMean}); err != nil {
		return Stats{}, err
	}
	return s.stats, nil
}

func (s *sim) Ranks() int { return 1 }

// Init starts the clients staggered by their first think time.
func (s *sim) Init(sc pdes.Sched, _ int) {
	s.sc = sc
	for c := 0; c < s.cfg.Clients; c++ {
		s.sc.At(0, s.think(c), kindIssue, int32(c), 0)
	}
}

func (s *sim) Handle(sc pdes.Sched, ev pdes.Event) {
	s.sc = sc
	if ev.Kind == kindIssue {
		s.issue(int(ev.Step))
		return
	}
	fl := s.running[ev.Step]
	s.running[ev.Step] = nil
	s.complete(fl)
}

// think returns the absolute virtual time of the client's next issue.
func (s *sim) think(client int) float64 {
	now := s.sc.Now()
	d := thinkMean*s.rng.Exp() + s.jitter.Delay(client, now, thinkMean)
	return now + d
}

// draw picks a job by popularity weight.
func (s *sim) draw() Job {
	r := s.rng.Float64() * s.totW
	for i, c := range s.cumW {
		if r < c {
			return s.cfg.Catalog[i]
		}
	}
	return s.cfg.Catalog[len(s.cfg.Catalog)-1]
}

// clientDone answers the client and schedules its next request, or
// retires it when the request budget is spent.
func (s *sim) clientDone(client int) {
	s.stats.Makespan = s.sc.Now()
	if s.stopped {
		return
	}
	s.sc.At(0, s.think(client), kindIssue, int32(client), 0)
}

// issue is the daemon request path in virtual time: cache, coalesce,
// admission, queue, reject — the same decision order as serve.Server.
func (s *sim) issue(client int) {
	if s.stats.Issued >= s.cfg.Requests {
		s.stopped = true
		return
	}
	s.stats.Issued++
	job := s.draw()

	// Result cache fast path.
	if s.cache != nil {
		if _, ok := s.cache.Get(job.Key); ok {
			s.note(job.Key, "hit")
			s.stats.CacheHits++
			s.stats.Served++
			s.clientDone(client)
			return
		}
	}
	// Coalesce onto an identical in-flight evaluation.
	if s.cfg.Coalesce {
		if fl, ok := s.inUse[job.Key]; ok {
			s.note(job.Key, "coalesced")
			fl.waiters = append(fl.waiters, client)
			s.stats.Coalesced++
			return
		}
	}
	fl := &flightState{job: job, leader: client}
	if s.cfg.Coalesce {
		s.inUse[job.Key] = fl
	}
	switch Admit(s.busy, len(s.queue), s.cfg.Workers, s.cfg.QueueDepth) {
	case Run:
		s.note(job.Key, "run")
		s.start(fl)
	case Queue:
		s.note(job.Key, "queue")
		fl.enqueued = s.sc.Now()
		s.queue = append(s.queue, fl)
	case Reject:
		s.note(job.Key, "reject")
		if s.cfg.Coalesce {
			delete(s.inUse, job.Key)
		}
		s.stats.Rejected++
		s.stats.Makespan = s.sc.Now()
		// The rejected client honours Retry-After and comes back.
		s.sc.At(0, s.sc.Now()+retryAfter, kindIssue, int32(client), 0)
	}
}

// start begins one evaluation on a free worker.
func (s *sim) start(fl *flightState) {
	s.busy++
	s.stats.Runs++
	s.stats.BusySum += fl.job.Service
	s.running[fl.leader] = fl
	s.sc.At(0, s.sc.Now()+fl.job.Service, kindComplete, int32(fl.leader), 0)
}

// complete finishes an evaluation: publish to the cache, answer the leader
// and every coalesced waiter, then hand the freed worker to the queue.
func (s *sim) complete(fl *flightState) {
	s.note(fl.job.Key, "done")
	s.busy--
	if s.cfg.Coalesce {
		delete(s.inUse, fl.job.Key)
	}
	if s.cache != nil {
		s.cache.Put(fl.job.Key, struct{}{})
	}
	s.stats.Served += 1 + len(fl.waiters)
	s.clientDone(fl.leader)
	for _, c := range fl.waiters {
		s.clientDone(c)
	}
	if len(s.queue) > 0 {
		next := s.queue[0]
		s.queue = s.queue[1:]
		s.stats.WaitSum += s.sc.Now() - next.enqueued
		s.note(next.job.Key, "start")
		s.start(next)
	}
}
