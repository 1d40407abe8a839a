package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"tenways/internal/cache"
	"tenways/internal/core"
	"tenways/internal/lint"
	_ "tenways/internal/lint/flow" // registers the interprocedural rules, as T11 does
	"tenways/internal/machine"
	"tenways/internal/mem"
	"tenways/internal/obs"
	"tenways/internal/pdes"
	"tenways/internal/report"
)

// scale sizes the workloads and the layer probes. fullScale is the
// benchmark; toyScale keeps the tests fast.
type scale struct {
	suiteIDs   []string // nil runs the whole suite
	waveRanks  int
	pholdRanks int
	pholdStop  float64 // PHOLD virtual end time
	serveReqs  int     // requests per serve-mix rep

	lintDir    string // module-relative directory the lint probe loads
	memBytes   uint64 // buffer the mem probe streams
	probeRanks int    // PHOLD ranks of the pdes probe
	probeReqs  int    // requests of the serve probe
}

var fullScale = scale{
	waveRanks: 1 << 17, pholdRanks: 1 << 16, pholdStop: 100e-6, serveReqs: 30000,
	lintDir: "...", memBytes: 16 << 20, probeRanks: 1 << 12, probeReqs: 2000,
}

var toyScale = scale{
	suiteIDs:  []string{"T2", "F4", "T12"},
	waveRanks: 1 << 10, pholdRanks: 1 << 10, pholdStop: 20e-6, serveReqs: 200,
	lintDir: "internal/amdahl", memBytes: 256 << 10, probeRanks: 1 << 8, probeReqs: 300,
}

// probeReps is how many times each cheap probe runs; its metrics are
// medians over these.
const probeReps = 3

// probeMin is the least time one cache or report timing spans.
const probeMin = 50 * time.Millisecond

// runProbes measures each layer through its public functions with inputs
// drawn from the workload seed. Every traced run executes all of them,
// so a per-layer metric is the same measurement whichever workload's run
// reports it.
func runProbes(ctx context.Context, e *env) (map[string][]float64, error) {
	out := map[string][]float64{}
	add := func(name string, v float64) { out[name] = append(out[name], v) }
	outputs, err := probeCore(ctx, e, add)
	if err != nil {
		return out, err
	}
	for _, p := range []func(*env, func(string, float64)) error{
		func(e *env, add func(string, float64)) error { return probeReport(e, outputs, add) },
		probeCache, probeMem, probePDES, probeServe, probeLint,
	} {
		if err := p(e, add); err != nil {
			return out, err
		}
	}
	return out, nil
}

// probeCore runs the lab's parallel runner over the cheap experiments:
// busy is the sum of experiment walls, idle what the workers' time left
// over — the runner's own tail imbalance.
func probeCore(ctx context.Context, e *env, add func(string, float64)) ([]core.Output, error) {
	lab := core.NewLab()
	workers := min(e.procs, len(cheapIDs))
	outputs := make([]core.Output, 0, len(cheapIDs))
	for i := 0; i < probeReps; i++ {
		_, end := e.tracer.begin("core.Lab.RunAll", 0)
		t0 := time.Now()
		results, err := lab.RunAll(ctx, core.Config{Quick: true, Seed: e.seed}, core.RunOptions{Workers: workers, IDs: cheapIDs})
		wall := time.Since(t0)
		end()
		if err != nil {
			return nil, fmt.Errorf("core probe: %w", err)
		}
		var busy time.Duration
		outputs = outputs[:0]
		for _, r := range results {
			busy += r.Wall
			outputs = append(outputs, r.Output)
		}
		add("core.busy_ms", float64(busy)/float64(time.Millisecond))
		add("core.idle_ms", float64(time.Duration(workers)*wall-busy)/float64(time.Millisecond))
	}
	return outputs, nil
}

// probeReport renders the experiments' outputs as the daemon's JSON and
// the terminal's ASCII, per output.
func probeReport(e *env, outputs []core.Output, add func(string, float64)) error {
	var buf bytes.Buffer
	for _, r := range []struct {
		name string
		r    report.Renderer
	}{{"report.json_us", report.JSON{}}, {"report.ascii_us", report.ASCII{}}} {
		for i := 0; i < probeReps; i++ {
			_, end := e.tracer.begin(r.name, 0)
			n, t0 := 0, time.Now()
			for n == 0 || time.Since(t0) < probeMin {
				for _, o := range outputs {
					buf.Reset()
					if err := o.RenderWith(&buf, r.r); err != nil {
						end()
						return fmt.Errorf("report probe: %w", err)
					}
					n++
				}
			}
			add(r.name, float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
			end()
		}
	}
	return nil
}

// probeCache replays the serve-mix key stream on the daemon's cache type
// and size: first every key is put, then every key is looked up.
func probeCache(e *env, add func(string, float64)) error {
	ks := newKeyStream(e.seed, e.scale.serveReqs)
	keys := make([]string, len(ks.reqs))
	for i, k := range ks.reqs {
		keys[i] = ks.paths[k]
	}
	for i := 0; i < probeReps; i++ {
		c := cache.New[any](1024, 0)
		_, end := e.tracer.begin("cache.Put", 0)
		n, t0 := 0, time.Now()
		for n == 0 || time.Since(t0) < probeMin {
			for _, k := range keys {
				c.Put(k, k)
			}
			n += len(keys)
		}
		add("cache.put_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
		end()
		_, end = e.tracer.begin("cache.Get", 0)
		n, t0 = 0, time.Now()
		for n == 0 || time.Since(t0) < probeMin {
			for _, k := range keys {
				if _, ok := c.Get(k); !ok {
					end()
					return fmt.Errorf("cache probe: %s missing after put", k)
				}
			}
			n += len(keys)
		}
		add("cache.get_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
		end()
	}
	return nil
}

// probeMem replays F20's first-touch stream: four cores initialise their
// quarter of the buffer, then stream it twice, on a two-domain NUMA model.
func probeMem(e *env, add func(string, float64)) error {
	spec := *machine.Petascale2009()
	spec.NUMA.Domains = 2
	spec.NUMA.RemoteLatencyFactor = 2
	spec.NUMA.RemotePJFactor = max(spec.NUMA.RemotePJFactor, 1)
	const cores = 4
	part := e.scale.memBytes / cores
	for i := 0; i < probeReps; i++ {
		h, err := mem.NewHierarchy(&spec, cores)
		if err != nil {
			return fmt.Errorf("mem probe: %w", err)
		}
		h.EnableNUMA(mem.PlacementFirstTouch)
		_, end := e.tracer.begin("mem.Hierarchy.access", 0)
		s, _ := measure(func() error {
			for c := 0; c < cores; c++ {
				for a := uint64(c) * part; a < uint64(c+1)*part; a += 64 {
					h.Write(c, a, 8)
				}
			}
			for pass := 0; pass < 2; pass++ {
				for c := 0; c < cores; c++ {
					for a := uint64(c) * part; a < uint64(c+1)*part; a += 64 {
						h.Read(c, a, 8)
					}
				}
			}
			return nil
		})
		end()
		accesses := float64(h.Stats().AccessCount)
		add("mem.maccess_per_s", accesses/s.wall/1e6)
		add("mem.alloc_b_per_access", float64(s.allocB)/accesses)
	}
	return nil
}

// probePDES runs a small PHOLD on the default partitioning and on one
// partition, and checks that both agree.
func probePDES(e *env, add func(string, float64)) error {
	mk := func() (pdes.Workload, func() uint64, error) {
		p := newPHOLD(e.scale.probeRanks, e.seed, pholdLookahead, 100e-6)
		return p, p.checksum, nil
	}
	for i := 0; i < probeReps; i++ {
		reg := obs.NewRegistry()
		par, res, s, err := pdesRun(e, "pdes.Run", mk, pdes.Config{Lookahead: pholdLookahead, Obs: reg})
		if err != nil {
			return fmt.Errorf("pdes probe: %w", err)
		}
		ser, _, s1, err := pdesRun(e, "pdes.Run.serial", mk, pdes.Config{Lookahead: pholdLookahead, Partitions: 1})
		if err != nil {
			return fmt.Errorf("pdes probe: %w", err)
		}
		if par != ser {
			return fmt.Errorf("pdes probe: %d partitions gave %v, one partition gave %v", res.Partitions, par, ser)
		}
		snap := reg.Snapshot()
		ev := float64(res.Events)
		add("pdes.events", ev)
		add("pdes.windows", float64(res.Windows))
		add("pdes.ladder_respreads", float64(snap.Counter("pdes.ladder_respreads")))
		add("pdes.cross_ratio", float64(res.CrossEvents)/ev)
		add("pdes.events_per_batch", float64(res.CrossEvents)/float64(max(res.CrossBatches, 1)))
		add("pdes.chunk_allocs", float64(snap.Counter("pdes.chunk_allocs")))
		add("pdes.alloc_b_per_event", float64(s.allocB)/ev)
		add("pdes.mallocs_per_run", float64(s.mallocs))
		add("pdes.cpu_s", s.cpu)
		add("pdes.mevents_per_s", ev/s.wall/1e6)
		add("pdes.serial_mevents_per_s", ev/s1.wall/1e6)
		add("pdes.speedup_vs_serial", s1.wall/s.wall)
	}
	return nil
}

// probeServe sends a short key stream through a fresh daemon and reads
// the daemon's own counters next to the client's view.
func probeServe(e *env, add func(string, float64)) error {
	ks := newKeyStream(e.seed, e.scale.probeReqs)
	st, s, err := serveOnce(e, ks)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	hits := float64(st.server.Counter("serve.cache_hits"))
	misses := float64(st.server.Counter("serve.cache_misses"))
	n := float64(len(ks.reqs))
	add("serve.hit_ratio", hits/(hits+misses))
	add("serve.coalesced", float64(st.server.Counter("serve.coalesced")))
	add("serve.run_ms_mean", st.server.Histograms["serve.run_seconds"].Mean()*1e3)
	if v, ok := percentile(st.missMS, 0.90); ok {
		add("serve.miss_p90_ms", v)
	}
	add("serve.resp_kb", float64(st.respBytes)/n/1024)
	add("serve.alloc_kb_per_req", float64(s.allocB)/n/1024)
	return nil
}

// probeLint loads and analyzes the module the way T11 does, timing the
// two phases apart. It runs once: the load type-checks the standard
// library from source and takes seconds.
func probeLint(e *env, add func(string, float64)) error {
	l, err := lint.NewLoaderAt(e.root)
	if err != nil {
		return fmt.Errorf("lint probe: %w", err)
	}
	var pkgs []*lint.Package
	_, end := e.tracer.begin("lint.Loader.Load", 0)
	load, err := measure(func() error {
		var err error
		pkgs, err = l.Load(filepath.Join(e.root, e.scale.lintDir))
		return err
	})
	end()
	if err != nil {
		return fmt.Errorf("lint probe: %w", err)
	}
	var res *lint.Result
	_, end = e.tracer.begin("lint.Analyze", 0)
	analyze, err := measure(func() error {
		var err error
		res, err = lint.Analyze(lint.DefaultConfig(), l.Root(), pkgs)
		return err
	})
	end()
	if err != nil {
		return fmt.Errorf("lint probe: %w", err)
	}
	add("lint.load_s", load.wall)
	add("lint.analyze_s", analyze.wall)
	add("lint.files", float64(res.Files))
	return nil
}
