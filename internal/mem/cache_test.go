package mem

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"tenways/internal/energy"
	"tenways/internal/machine"
)

func newTestHierarchy(t *testing.T, cores int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(machine.Laptop2009(), cores)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// tiny returns a machine with a minuscule cache so evictions are easy to force.
func tiny() *machine.Spec {
	s := machine.Laptop2009()
	s.Levels = []machine.LevelSpec{
		{Name: "L1", CapacityBytes: 4 * 64, LineBytes: 64, Assoc: 2, LatencyCycles: 1, PJPerByte: 1},
		{Name: "LLC", CapacityBytes: 16 * 64, LineBytes: 64, Assoc: 4, LatencyCycles: 10, PJPerByte: 4, Shared: true},
	}
	return s
}

func TestNewHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(machine.Laptop2009(), 0); err == nil {
		t.Fatal("0 cores should fail")
	}
	if _, err := NewHierarchy(machine.Laptop2009(), 65); err == nil {
		t.Fatal("65 cores should fail")
	}
	s := machine.Laptop2009()
	s.Levels = nil
	if _, err := NewHierarchy(s, 1); err == nil {
		t.Fatal("no levels should fail")
	}
	s2 := machine.Laptop2009()
	s2.Levels[1].LineBytes = 128
	s2.Levels[1].CapacityBytes = 256 << 10
	if _, err := NewHierarchy(s2, 1); err == nil {
		t.Fatal("mixed line sizes should fail")
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := newTestHierarchy(t, 1)
	r1 := h.Read(0, 0, 8)
	if r1.HitLevel != DRAMLevel {
		t.Fatalf("first access should miss to DRAM, got level %d", r1.HitLevel)
	}
	r2 := h.Read(0, 0, 8)
	if r2.HitLevel != 0 {
		t.Fatalf("second access should hit L1, got level %d", r2.HitLevel)
	}
	if r2.Cycles >= r1.Cycles {
		t.Fatalf("hit (%g cyc) should be cheaper than miss (%g cyc)", r2.Cycles, r1.Cycles)
	}
}

func TestAccessSpanningTwoLines(t *testing.T) {
	h := newTestHierarchy(t, 1)
	r := h.Read(0, 60, 8) // crosses the 64-byte boundary
	if r.LinesUsed != 2 {
		t.Fatalf("expected 2 lines, got %d", r.LinesUsed)
	}
}

func TestZeroSizeAccess(t *testing.T) {
	h := newTestHierarchy(t, 1)
	r := h.Read(0, 0, 0)
	if r.LinesUsed != 0 || r.Cycles != 0 {
		t.Fatalf("zero-size access should be free: %+v", r)
	}
}

func TestEvictionOnOverflow(t *testing.T) {
	h, err := NewHierarchy(tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// L1 holds 4 lines (2 sets x 2 ways). Touch 8 distinct lines mapping
	// across sets, then re-touch the first: it must have been evicted from
	// L1 but still hit in the LLC.
	for i := uint64(0); i < 8; i++ {
		h.Read(0, i*64, 8)
	}
	r := h.Read(0, 0, 8)
	if r.HitLevel != 1 {
		t.Fatalf("expected LLC hit after L1 eviction, got level %d", r.HitLevel)
	}
}

func TestDirtyWritebackReachesDRAM(t *testing.T) {
	h, err := NewHierarchy(tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty many distinct lines so evictions cascade through the LLC.
	for i := uint64(0); i < 64; i++ {
		h.Write(0, i*64, 8)
	}
	st := h.Stats()
	if st.WritebackBytes == 0 {
		t.Fatal("expected dirty writebacks to DRAM")
	}
}

func TestStreamingMissRate(t *testing.T) {
	h := newTestHierarchy(t, 1)
	// Stream 1 MiB once: every line is a cold DRAM miss.
	n := 1 << 20
	for a := 0; a < n; a += 8 {
		h.Read(0, uint64(a), 8)
	}
	st := h.Stats()
	wantLines := int64(n / 64)
	if st.DRAMAccesses != wantLines {
		t.Fatalf("DRAM accesses = %d, want %d", st.DRAMAccesses, wantLines)
	}
	// 7 of 8 accesses per line hit L1.
	if st.LevelHits[0] != int64(n/8)-wantLines {
		t.Fatalf("L1 hits = %d, want %d", st.LevelHits[0], int64(n/8)-wantLines)
	}
}

func TestTemporalReuseStaysInCache(t *testing.T) {
	h := newTestHierarchy(t, 1)
	for rep := 0; rep < 10; rep++ {
		for a := 0; a < 16<<10; a += 8 { // 16 KiB working set fits L1
			h.Read(0, uint64(a), 8)
		}
	}
	st := h.Stats()
	if st.DRAMAccesses != int64(16<<10)/64 {
		t.Fatalf("reuse should cost one cold pass of DRAM: %d", st.DRAMAccesses)
	}
}

func TestFalseSharingPingPong(t *testing.T) {
	h := newTestHierarchy(t, 2)
	// Two cores write adjacent words on the same line.
	for i := 0; i < 100; i++ {
		h.Write(0, 0, 8)
		h.Write(1, 8, 8)
	}
	st := h.Stats()
	if st.Invalidations < 150 {
		t.Fatalf("expected heavy invalidation traffic, got %d", st.Invalidations)
	}
	if st.CacheTransfers == 0 {
		t.Fatal("expected cache-to-cache transfers")
	}

	// Padded variant: separate lines — no coherence traffic at all.
	h2 := newTestHierarchy(t, 2)
	for i := 0; i < 100; i++ {
		h2.Write(0, 0, 8)
		h2.Write(1, 64, 8)
	}
	st2 := h2.Stats()
	if st2.Invalidations != 0 || st2.CacheTransfers != 0 {
		t.Fatalf("padded variant should have no coherence traffic: %+v", st2)
	}
	if st2.TotalCycles >= st.TotalCycles {
		t.Fatalf("padded (%g cyc) should be faster than false sharing (%g cyc)",
			st2.TotalCycles, st.TotalCycles)
	}
}

func TestReadOfRemotelyModifiedLine(t *testing.T) {
	h := newTestHierarchy(t, 2)
	h.Write(0, 0, 8)
	st0 := h.Stats()
	h.Read(1, 0, 8)
	st1 := h.Stats()
	if st1.CacheTransfers != st0.CacheTransfers+1 {
		t.Fatalf("read of modified remote line should intervene: %d -> %d",
			st0.CacheTransfers, st1.CacheTransfers)
	}
	// Now both share it; reads from both cores hit privately with no traffic.
	h.Read(0, 0, 8)
	h.Read(1, 0, 8)
	st2 := h.Stats()
	if st2.CacheTransfers != st1.CacheTransfers {
		t.Fatal("shared reads should not cause transfers")
	}
}

func TestSharedReadersNoInvalidationUntilWrite(t *testing.T) {
	h := newTestHierarchy(t, 4)
	for c := 0; c < 4; c++ {
		h.Read(c, 0, 8)
	}
	if st := h.Stats(); st.Invalidations != 0 {
		t.Fatalf("pure read sharing should not invalidate: %d", st.Invalidations)
	}
	h.Write(0, 0, 8)
	if st := h.Stats(); st.Invalidations != 3 {
		t.Fatalf("write to 4-way shared line should invalidate 3 copies, got %d", st.Invalidations)
	}
}

func TestChargeEnergy(t *testing.T) {
	h := newTestHierarchy(t, 1)
	for a := 0; a < 1<<16; a += 8 {
		h.Read(0, uint64(a), 8)
	}
	m := energy.NewMeter()
	h.ChargeEnergy(m)
	b := m.Breakdown()
	if b.TotalJoules <= 0 {
		t.Fatal("expected positive energy")
	}
	if b.Joules(energy.DRAM) <= 0 {
		t.Fatal("expected DRAM energy")
	}
	if b.Joules("cache:L1") <= 0 {
		t.Fatal("expected L1 fill energy")
	}
}

func TestBlockedVsNaiveTrafficShape(t *testing.T) {
	// The W1 essence: repeated passes over an array larger than the LLC
	// re-fetch everything from DRAM, while blocking the passes into
	// cache-sized chunks fetches each byte once.
	n := uint64(8 << 20) // 8 MiB > 3 MiB laptop L3
	const reps = 2
	naive, err := NewHierarchy(machine.Laptop2009(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < reps; rep++ {
		for a := uint64(0); a < n; a += 64 {
			naive.Read(0, a, 8)
		}
	}
	blocked, err := NewHierarchy(machine.Laptop2009(), 1)
	if err != nil {
		t.Fatal(err)
	}
	chunk := uint64(16 << 10) // fits L1
	for base := uint64(0); base < n; base += chunk {
		for rep := 0; rep < reps; rep++ {
			for a := base; a < base+chunk; a += 64 {
				blocked.Read(0, a, 8)
			}
		}
	}
	nb, bb := naive.Stats().DRAMBytes, blocked.Stats().DRAMBytes
	if nb < int64(reps)*int64(n)*9/10 {
		t.Fatalf("naive should stream ~%d bytes from DRAM, got %d", reps*int(n), nb)
	}
	if bb > int64(n)*11/10 {
		t.Fatalf("blocked should fetch each byte ~once (%d), got %d", n, bb)
	}
}

// Property: per level, hits+misses accounting is consistent and cycle count
// is positive for any access pattern; stats never go negative.
func TestHierarchyInvariantsProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		h, err := NewHierarchy(tiny(), 2)
		if err != nil {
			return false
		}
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			core := i % 2
			if w {
				h.Write(core, uint64(a), 4)
			} else {
				h.Read(core, uint64(a), 4)
			}
		}
		st := h.Stats()
		if st.AccessCount != int64(len(addrs)) {
			return false
		}
		if st.TotalCycles < 0 || st.DRAMBytes < 0 || st.CoherenceBytes < 0 {
			return false
		}
		// Every DRAM fill is line-sized.
		if st.DRAMBytes%64 != 0 {
			return false
		}
		// L1 hits + L1 misses == total line-accesses at L1.
		var l1 int64 = st.LevelHits[0] + st.LevelMisses[0]
		return l1 >= int64(len(addrs)) || len(addrs) == 0 || l1 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsIsACopy(t *testing.T) {
	h := newTestHierarchy(t, 1)
	h.Read(0, 0, 8)
	st := h.Stats()
	st.LevelHits[0] = 999999
	if h.Stats().LevelHits[0] == 999999 {
		t.Fatal("Stats leaked internal slice")
	}
}

func TestTimeSec(t *testing.T) {
	h := newTestHierarchy(t, 1)
	h.Read(0, 0, 8)
	if h.TimeSec() <= 0 {
		t.Fatal("expected positive time")
	}
}

func TestPrefetchSequentialStream(t *testing.T) {
	spec := machine.Laptop2009()
	run := func(prefetch bool) Stats {
		h, err := NewHierarchy(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if prefetch {
			h.EnablePrefetch()
		}
		for a := uint64(0); a < 1<<20; a += 8 {
			h.Read(0, a, 8)
		}
		return h.Stats()
	}
	off := run(false)
	on := run(true)
	if on.TotalCycles >= off.TotalCycles {
		t.Fatalf("prefetch should cut sequential latency: %g vs %g cycles",
			on.TotalCycles, off.TotalCycles)
	}
	// Prefetching hides latency but does not reduce traffic.
	if on.DRAMBytes < off.DRAMBytes {
		t.Fatalf("prefetch should not reduce DRAM traffic: %d vs %d",
			on.DRAMBytes, off.DRAMBytes)
	}
	if on.Prefetches == 0 || on.PrefetchBytes == 0 {
		t.Fatal("prefetch stats not recorded")
	}
	if off.Prefetches != 0 {
		t.Fatal("prefetches recorded with prefetcher off")
	}
}

func TestPrefetchDefeatedByLargeStride(t *testing.T) {
	spec := machine.Laptop2009()
	run := func(prefetch bool) (float64, int64) {
		h, err := NewHierarchy(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if prefetch {
			h.EnablePrefetch()
		}
		for a := uint64(0); a < 8<<20; a += 256 { // skips 3 of 4 lines
			h.Read(0, a, 8)
		}
		return h.Stats().TotalCycles, h.Stats().DRAMBytes
	}
	offCycles, offBytes := run(false)
	onCycles, onBytes := run(true)
	// A next-line prefetcher gains nothing on stride-4-lines access...
	if onCycles < offCycles*0.9 {
		t.Fatalf("next-line prefetch should not rescue strided access: %g vs %g", onCycles, offCycles)
	}
	// ...but it doubles the DRAM traffic with useless fetches.
	if onBytes < offBytes*3/2 {
		t.Fatalf("defeated prefetcher should waste traffic: %d vs %d", onBytes, offBytes)
	}
}

func TestPrefetchNoSharedLevelFillsPrivate(t *testing.T) {
	spec := machine.Laptop2009()
	spec.Levels = []machine.LevelSpec{
		{Name: "L1", CapacityBytes: 32 << 10, LineBytes: 64, Assoc: 8, LatencyCycles: 4, PJPerByte: 1},
	}
	h, err := NewHierarchy(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.EnablePrefetch()
	for a := uint64(0); a < 1<<14; a += 64 {
		h.Read(0, a, 8)
	}
	if h.Stats().Prefetches == 0 {
		t.Fatal("prefetcher inactive without a shared level")
	}
}

// Without a shared level a prefetch lands in the missing core's deepest
// private level, and the directory must track that copy so that another
// core's write invalidates it.
func TestPrefetchNoSharedLevelIsCoherent(t *testing.T) {
	spec := machine.Laptop2009()
	spec.Levels = []machine.LevelSpec{
		{Name: "L1", CapacityBytes: 32 << 10, LineBytes: 64, Assoc: 8, LatencyCycles: 4, PJPerByte: 1},
	}
	prefetching := func() *Hierarchy {
		h, err := NewHierarchy(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		h.EnablePrefetch()
		return h
	}
	for _, reader := range []int{0, 1} {
		h := prefetching()
		h.Read(reader, 0, 8) // misses, prefetches line 1
		h.Write(1-reader, 64, 8)
		if inv := h.Stats().Invalidations; inv != 1 {
			t.Fatalf("reader %d: write to a line the other core prefetched made %d invalidations, want 1", reader, inv)
		}
		h = prefetching()
		h.Read(reader, 0, 8)
		if r := h.Read(reader, 64, 8); r.HitLevel != 0 {
			t.Fatalf("reader %d: prefetched line should hit the reader's L1, got level %d", reader, r.HitLevel)
		}
	}
}

// Streaming new lines through a warm multi-core hierarchy allocates
// nothing: the caches are flat arrays and directory entries are values.
func TestZeroAllocStreaming(t *testing.T) {
	const cores = 4
	h, err := NewHierarchy(machine.Petascale2009(), cores)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 256 << 10 // bytes per core per run
	var next uint64
	stream := func() {
		for c := 0; c < cores; c++ {
			for a := uint64(0); a < chunk; a += 64 {
				h.Write(c, next+a, 8)
			}
			next += chunk
		}
	}
	// Warm up until every level is full and the directory has reached its
	// steady-state size.
	for i := 0; i < 32; i++ {
		stream()
	}
	if allocs := testing.AllocsPerRun(20, stream); allocs != 0 {
		t.Fatalf("streaming allocated %v times per run, want 0", allocs)
	}
}

// A cold hierarchy allocates only as its directory doubles: an F20-sized
// parallel initialisation and stream over 4 cores costs at most one
// allocation per directory size it passed through, and the directory
// stays within the bound the private capacity puts on it.
func TestColdStreamAllocatesPerDoubling(t *testing.T) {
	const cores = 4
	const bytes = 16 << 20
	spec := machine.Petascale2009()
	h, err := NewHierarchy(spec, cores)
	if err != nil {
		t.Fatal(err)
	}
	part := uint64(bytes / cores)
	run := func() {
		for c := 0; c < cores; c++ {
			for a := uint64(c) * part; a < uint64(c+1)*part; a += 64 {
				h.Write(c, a, 8)
			}
		}
		for c := 0; c < cores; c++ {
			for a := uint64(c) * part; a < uint64(c+1)*part; a += 64 {
				h.Read(c, a, 8)
			}
		}
	}
	// A collection allocates on the runtime's own account; the stream's
	// garbage is only the directory's outgrown tables, so keep it off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	sizes := 0
	for n := len(h.dir.slots); n >= dirInitialSlots; n /= 2 {
		sizes++
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > uint64(sizes) {
		t.Fatalf("cold stream allocated %d times, want at most %d (one per directory size up to %d slots)",
			allocs, sizes, len(h.dir.slots))
	}
	var privLines int64
	for _, l := range spec.Levels {
		if !l.Shared {
			privLines += l.CapacityBytes / int64(l.LineBytes)
		}
	}
	if bound := cores * privLines; int64(h.dir.n) > bound || int64(len(h.dir.slots)) > 4*bound {
		t.Fatalf("directory holds %d entries in %d slots; the private capacity is %d lines", h.dir.n, len(h.dir.slots), bound)
	}
}

// A prefetch mark lives and dies with its line in the shared levels: once
// a prefetched line is evicted unused, the demand-fetched copy that
// replaces it is not a prefetch, and a hit on it continues no chain.
func TestPrefetchMarkDiesWithItsLine(t *testing.T) {
	// tiny: L1 has 2 sets of 2 ways, the shared LLC 4 sets of 4 ways.
	h, err := NewHierarchy(tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	h.EnablePrefetch()
	read := func(line uint64) { h.Read(0, line*64, 8) }
	read(0) // misses; prefetches line 1 into LLC set 1
	for k := uint64(1); k <= 4; k++ {
		read(1 + 4*k) // evicts the unused prefetch of line 1 from set 1
	}
	read(1) // demand miss: line 1 is back, not as a prefetch; prefetches line 2
	for k := uint64(1); k <= 4; k++ {
		read(2 + 4*k) // evicts line 2 from LLC set 2
	}
	read(3) // evict line 1 from its L1 set, keeping it in the LLC
	read(7)
	before := h.Stats().Prefetches
	if r := h.Read(0, 64, 8); r.HitLevel != 1 {
		t.Fatalf("line 1 should hit the LLC, got level %d", r.HitLevel)
	}
	if n := h.Stats().Prefetches - before; n != 0 {
		t.Fatalf("a hit on a demand-fetched line issued %d prefetches, want 0", n)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	h := newTestHierarchy(t, 1)
	h.Read(0, 0, 8)
	h.ResetStats()
	st := h.Stats()
	if st.AccessCount != 0 || st.DRAMAccesses != 0 || st.TotalCycles != 0 {
		t.Fatalf("stats not cleared: %+v", st)
	}
	// Cache contents survive: the next read is a hit, not a DRAM miss.
	r := h.Read(0, 0, 8)
	if r.HitLevel != 0 {
		t.Fatalf("cache contents lost on ResetStats: level %d", r.HitLevel)
	}
}

// A hierarchy that ran one trace and was Reset runs a second exactly as a
// fresh one does: same results access by access, Stats, time, remote
// lines under both placements, and energy. Trace A leaves dirty lines,
// directory entries, prefetch marks and first-touch homes over the span
// that trace B then reuses.
func TestHierarchyResetMatchesFresh(t *testing.T) {
	for _, preset := range machine.Presets() {
		for _, cores := range []int{1, 4, 8} {
			for _, on := range []bool{false, true} {
				spec := func() *machine.Spec {
					s := machine.Preset(preset.Name)
					if on && s.NUMA.Uniform() {
						s.NUMA = machine.NUMASpec{Domains: 2, RemoteLatencyFactor: 1.7, RemotePJFactor: 1.5}
					}
					return s
				}
				tc := traceCase{spec: spec, cores: cores, prefetch: on, numa: on, place: PlacementFirstTouch, ops: 20000, span: 1 << 20}
				name := fmt.Sprintf("%s-%dc-prefetch-numa-%v", preset.Name, cores, on)
				t.Run(name, func(t *testing.T) {
					a, b := tc, tc
					a.name, b.name = name+"/A", name+"/B"
					fresh := newTraceHierarchy(t, b)
					wantDigest := replayTrace(fresh, b)
					reused := newTraceHierarchy(t, a)
					replayTrace(reused, a)
					reused.Reset()
					if digest := replayTrace(reused, b); digest != wantDigest {
						t.Fatalf("after Reset trace B's results digest to %016x, fresh %016x", digest, wantDigest)
					}
					if got, want := reused.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
						t.Fatalf("after Reset Stats %+v, fresh %+v", got, want)
					}
					if got, want := reused.TimeSec(), fresh.TimeSec(); got != want {
						t.Fatalf("after Reset TimeSec %g, fresh %g", got, want)
					}
					for _, p := range []Placement{PlacementFirstTouch, PlacementInterleave} {
						if got, want := reused.RemoteLines(p), fresh.RemoteLines(p); got != want {
							t.Fatalf("after Reset RemoteLines(%d) %d, fresh %d", p, got, want)
						}
					}
					mr, mf := energy.NewMeter(), energy.NewMeter()
					reused.ChargeEnergy(mr)
					fresh.ChargeEnergy(mf)
					if got, want := mr.Breakdown(), mf.Breakdown(); !reflect.DeepEqual(got, want) {
						t.Fatalf("after Reset energy %v, fresh %v", got, want)
					}
				})
			}
		}
	}
}

// Reset and ResetStats allocate nothing: a sweep that resets one warm
// hierarchy between points reruns in the caches, directory slots and
// first-touch map the first point allocated.
func TestResetAllocatesNothing(t *testing.T) {
	const cores = 4
	h, err := NewHierarchy(machine.Petascale2009(), cores)
	if err != nil {
		t.Fatal(err)
	}
	h.EnablePrefetch()
	h.EnableNUMA(PlacementFirstTouch)
	stream := func() {
		for c := 0; c < cores; c++ {
			for a := uint64(0); a < 1<<20; a += 64 {
				h.Write(c, uint64(c)<<20+a, 8)
			}
		}
	}
	stream()
	if allocs := testing.AllocsPerRun(100, h.ResetStats); allocs != 0 {
		t.Fatalf("ResetStats allocated %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { h.Reset(); stream() }); allocs != 0 {
		t.Fatalf("Reset and a rerun allocated %v times per run, want 0", allocs)
	}
}
