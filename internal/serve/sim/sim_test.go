package sim

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"tenways/internal/chaos"
	"tenways/internal/workload"
)

func catalog(n int) []Job {
	jobs := make([]Job, 0, n)
	for i := 0; i < n; i++ {
		// Zipf-ish popularity: job 0 is requested most; heavier jobs rarer.
		jobs = append(jobs, Job{
			Key:     "job-" + strconv.Itoa(i),
			Service: 0.2 + 0.05*float64(i),
			Weight:  1 / float64(i+1),
		})
	}
	return jobs
}

func baseConfig() Config {
	return Config{
		Seed:       2009,
		Clients:    32,
		Requests:   2000,
		Workers:    4,
		QueueDepth: 8,
		CacheSize:  64,
		Coalesce:   true,
		Catalog:    catalog(24),
	}
}

func simulate(t *testing.T, cfg Config) Stats {
	t.Helper()
	st, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSimulateDeterministic(t *testing.T) {
	a := simulate(t, baseConfig())
	b := simulate(t, baseConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different stats:\n%+v\n%+v", a, b)
	}
	if a.Issued == 0 || a.Served == 0 || a.Runs == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}

func TestSimulateSeedMatters(t *testing.T) {
	a := simulate(t, baseConfig())
	cfg := baseConfig()
	cfg.Seed = 7
	b := simulate(t, cfg)
	if reflect.DeepEqual(a, b) {
		t.Fatalf("different seeds produced identical stats: %+v", a)
	}
}

func TestConservation(t *testing.T) {
	s := simulate(t, baseConfig())
	// Every issued request is eventually served, rejected, or (at shutdown)
	// still parked as a coalesced waiter behind a flight that finished after
	// the budget ran out — those are answered by complete(), so:
	if s.Served+s.Rejected > s.Issued {
		t.Fatalf("served %d + rejected %d exceeds issued %d", s.Served, s.Rejected, s.Issued)
	}
	if s.CacheHits+s.Coalesced+s.Runs > s.Issued {
		t.Fatalf("hits %d + coalesced %d + runs %d exceeds issued %d",
			s.CacheHits, s.Coalesced, s.Runs, s.Issued)
	}
	if s.Makespan <= 0 || s.BusySum <= 0 {
		t.Fatalf("degenerate times: %+v", s)
	}
	if f := s.IdleFraction(4); f < 0 || f >= 1 {
		t.Fatalf("idle fraction %v out of range", f)
	}
}

func TestCacheReducesRuns(t *testing.T) {
	with := simulate(t, baseConfig())
	cfg := baseConfig()
	cfg.CacheSize = 0
	without := simulate(t, cfg)
	if with.CacheHits == 0 {
		t.Fatalf("cache enabled but no hits: %+v", with)
	}
	if without.CacheHits != 0 {
		t.Fatalf("cache disabled but hits recorded: %+v", without)
	}
	if with.Runs >= without.Runs {
		t.Fatalf("cache did not reduce runs: with=%d without=%d", with.Runs, without.Runs)
	}
}

func TestCoalesceReducesRuns(t *testing.T) {
	// No cache isolates coalescing's contribution; a tiny catalog makes
	// concurrent identical requests common.
	cfg := baseConfig()
	cfg.CacheSize = 0
	cfg.Catalog = catalog(3)
	with := simulate(t, cfg)
	cfg.Coalesce = false
	without := simulate(t, cfg)
	if with.Coalesced == 0 {
		t.Fatalf("coalescing enabled but never used: %+v", with)
	}
	if with.Runs >= without.Runs {
		t.Fatalf("coalescing did not reduce runs: with=%d without=%d", with.Runs, without.Runs)
	}
}

func TestSmallQueueRejects(t *testing.T) {
	cfg := baseConfig()
	cfg.CacheSize = 0
	cfg.Coalesce = false
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s := simulate(t, cfg)
	if s.Rejected == 0 {
		t.Fatalf("overloaded single worker never rejected: %+v", s)
	}
}

func TestMoreWorkersLessIdlePerRequest(t *testing.T) {
	cfg := baseConfig()
	cfg.CacheSize = 0
	cfg.Coalesce = false
	one := simulate(t, Config{Seed: cfg.Seed, Clients: cfg.Clients, Requests: cfg.Requests,
		Workers: 1, QueueDepth: 64, Catalog: cfg.Catalog})
	eight := simulate(t, Config{Seed: cfg.Seed, Clients: cfg.Clients, Requests: cfg.Requests,
		Workers: 8, QueueDepth: 64, Catalog: cfg.Catalog})
	if eight.Makespan >= one.Makespan {
		t.Fatalf("8 workers not faster than 1: %v >= %v", eight.Makespan, one.Makespan)
	}
	if eight.MeanWait() >= one.MeanWait() {
		t.Fatalf("8 workers not less queueing than 1: %v >= %v", eight.MeanWait(), one.MeanWait())
	}
}

// TestMakespanEndsAtLastAnswer runs one client with a budget of one
// request: the answer comes one service time after the client's first
// think, and the think that follows it issues nothing, so it must not
// count towards the makespan.
func TestMakespanEndsAtLastAnswer(t *testing.T) {
	cfg := Config{Seed: 3, Clients: 1, Requests: 1, Workers: 1,
		Catalog: []Job{{Key: "a", Service: 1, Weight: 1}}}
	st := simulate(t, cfg)
	// The first think, drawn as Simulate's Init draws it.
	rng := workload.NewRand(cfg.Seed)
	jitter := chaos.NewJitter(chaos.Bursty, burstFrac, cfg.Seed+1, cfg.Clients)
	issued := thinkMean*rng.Exp() + jitter.Delay(0, 0, thinkMean)
	if want := issued + 1; st.Served != 1 || st.Makespan != want {
		t.Fatalf("served %d, makespan %v; want 1 served at %v", st.Served, st.Makespan, want)
	}
}

func TestZeroConfig(t *testing.T) {
	if s := simulate(t, Config{}); s != (Stats{}) {
		t.Fatalf("zero config should be a no-op, got %+v", s)
	}
}

// TestStatsGoldens pins the whole Stats of the configurations the tests
// above run, printed with %+v, so a change to event order, to a random
// draw or to the accounting shows up as a changed line.
// The base, seed7 and coalesce3 makespans were re-recorded when Makespan
// became the time of the last answer rather than of the last event: in
// those runs clients were still thinking when the request budget ran out.
func TestStatsGoldens(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"base", func(*Config) {},
			"{Issued:2000 Served:1990 Rejected:10 CacheHits:1875 Coalesced:91 Runs:24 Makespan:8.501233160556405 WaitSum:21.20104512794548 BusySum:18.6}"},
		{"seed7", func(c *Config) { c.Seed = 7 },
			"{Issued:2000 Served:1991 Rejected:9 CacheHits:1882 Coalesced:85 Runs:24 Makespan:8.344357717145959 WaitSum:23.48528858989288 BusySum:18.599999999999998}"},
		{"nocache", func(c *Config) { c.CacheSize = 0 },
			"{Issued:2000 Served:1676 Rejected:324 CacheHits:0 Coalesced:1257 Runs:419 Makespan:63.70644341623924 WaitSum:457.8552362529889 BusySum:253.54999999999987}"},
		{"coalesce3", func(c *Config) { c.CacheSize = 0; c.Catalog = catalog(3) },
			"{Issued:2000 Served:2000 Rejected:0 CacheHits:0 Coalesced:1835 Runs:165 Makespan:14.310478388147812 WaitSum:0 BusySum:39.95}"},
		{"oneworker", func(c *Config) { c.CacheSize, c.Coalesce, c.Workers, c.QueueDepth = 0, false, 1, 1 },
			"{Issued:2000 Served:29 Rejected:1971 CacheHits:0 Coalesced:0 Runs:29 Makespan:14.003591129770891 WaitSum:13.0770575069259 BusySum:14}"},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		tc.mut(&cfg)
		if got := fmt.Sprintf("%+v", simulate(t, cfg)); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
