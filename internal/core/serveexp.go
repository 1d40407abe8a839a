package core

// T12: the daemon measures itself. A deterministic closed-loop load
// generator (internal/serve/sim) replays wastelabd's request-path policies
// — result cache, request coalescing, bounded admission — in virtual time
// under bursty client arrivals, and the table shows how each policy layer
// moves the daemon's own waste modes: redundant evaluations (W2), worker
// idleness (W10), and unbounded queueing. The simulator shares the real
// internal/cache implementation the server mounts; only the clock is
// virtual, so a fixed seed reproduces the table byte for byte at any
// -parallel width.

import (
	"context"
	"strconv"

	"tenways/internal/report"
	"tenways/internal/serve/sim"
)

// t12Catalog builds the request population: a Zipf-ish popularity skew
// (few hot experiments, a long cool tail) over evaluations whose virtual
// service times grow down the tail.
func t12Catalog(n int) []sim.Job {
	jobs := make([]sim.Job, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, sim.Job{
			Key:     "exp-" + strconv.Itoa(i),
			Service: 0.25 + 0.05*float64(i),
			Weight:  1 / float64(i+1),
		})
	}
	return jobs
}

func runT12(ctx context.Context, cfg Config) (Output, error) {
	clients, requests, catalog := 48, 6000, 32
	if cfg.Quick {
		clients, requests, catalog = 16, 800, 12
	}
	base := sim.Config{
		Seed:       cfg.seed(),
		Clients:    clients,
		Requests:   requests,
		Workers:    4,
		QueueDepth: 8,
		Catalog:    t12Catalog(catalog),
	}

	// Policy ladder: each row switches one more of the daemon's remedies
	// on. "naive" queues deep with no reuse; the last row runs every
	// remedy wastelabd runs, with the queue bounded at 8 waiters where
	// wastelabd's -queue defaults to 64.
	rows := []struct {
		label string
		mut   func(c sim.Config) sim.Config
	}{
		{"naive: no cache, no coalescing, deep queue", func(c sim.Config) sim.Config {
			c.QueueDepth = requests // effectively unbounded: queue, never shed
			return c
		}},
		{"+ result cache (1024 entries)", func(c sim.Config) sim.Config {
			c.QueueDepth = requests
			c.CacheSize = 1024
			return c
		}},
		{"+ request coalescing", func(c sim.Config) sim.Config {
			c.QueueDepth = requests
			c.CacheSize = 1024
			c.Coalesce = true
			return c
		}},
		{"+ bounded admission (shed past 8 waiters)", func(c sim.Config) sim.Config {
			c.CacheSize = 1024
			c.Coalesce = true
			return c
		}},
	}

	t := report.NewTable("T12",
		"wastelabd under closed-loop bursty load: each request-path policy layer vs the daemon's waste modes "+
			"(seed "+strconv.FormatUint(base.Seed, 10)+", "+
			strconv.Itoa(clients)+" clients, "+strconv.Itoa(requests)+" requests, "+
			strconv.Itoa(base.Workers)+" workers)",
		"daemon policy", "lab runs", "cache hit", "coalesced", "shed (429)",
		"mean queue wait", "worker idle", "served/s", "makespan")
	for _, row := range rows {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
		st, err := sim.Simulate(row.mut(base))
		if err != nil {
			return Output{}, err
		}
		t.AddRow(
			row.label,
			strconv.Itoa(st.Runs),
			report.FormatG(100*st.HitRatio())+"%",
			strconv.Itoa(st.Coalesced),
			strconv.Itoa(st.Rejected),
			report.FormatSeconds(st.MeanWait()),
			report.FormatG(100*st.IdleFraction(base.Workers))+"%",
			report.FormatG(st.Throughput()),
			report.FormatSeconds(st.Makespan),
		)
	}
	return Output{Table: t}, nil
}
