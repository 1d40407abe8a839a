// Package mem implements a trace-driven multi-level cache hierarchy
// simulator: per-core private levels, shared last-level cache, DRAM, LRU
// replacement, write-back write-allocate, and a MESI-style invalidation
// protocol between cores' private hierarchies so that coherence traffic
// (including false sharing) is observable.
//
// The simulator is functional, not timing-pipelined: each Access returns the
// cycles the access would take and accounts the bytes moved at every level,
// which is exactly the information the W1 (locality) and W9 (false sharing)
// experiments and their energy models need.
package mem

import (
	"fmt"
	"math/bits"

	"tenways/internal/energy"
	"tenways/internal/machine"
)

// cache is one set-associative cache, stored set-major in flat slices:
// way w of set s lives at index s*assoc+w of tags, dirty and links, so a
// probe scans one contiguous run of tags.
//
// Replacement is exact LRU without stamps. Each set threads its valid ways
// on a circular recency list through links (mru[s] is the most recently
// used way, its prev the least) and keeps them as a bitmask in valid. A
// fill takes the lowest invalid way if the set has one, else the list's
// tail, so neither a fill nor a hit scans the set's LRU state. The links
// are uint8 and the mask a uint64: machine.Spec.Validate bounds
// associativity at machine.MaxAssoc.
type cache struct {
	assoc int
	nSets uint64
	full  uint64   // valid mask of a full set: the low assoc bits
	tags  []uint64 // lineAddr+1 of the resident line; 0 marks an invalid way
	dirty []bool
	links []link   // per way; meaningful only for valid ways
	valid []uint64 // per set: bit w set iff way w holds a line
	mru   []uint8  // per set: the most recently used way, if valid != 0

	// pf marks the ways a prefetch filled that no demand access has used
	// yet. Only shared levels of a prefetching hierarchy have it (nil
	// otherwise); fill clears the mark of the way it reuses, so a mark
	// never outlives its line.
	pf []bool
}

// link places a valid way on its set's recency list: next is the way used
// just before it, prev the way used just after (both in-set indices).
type link struct{ prev, next uint8 }

func newCache(spec machine.LevelSpec) *cache {
	nSets := uint64(spec.CapacityBytes / int64(spec.LineBytes) / int64(spec.Assoc))
	n := nSets * uint64(spec.Assoc)
	return &cache{
		assoc: spec.Assoc,
		nSets: nSets,
		full:  ^uint64(0) >> (64 - spec.Assoc),
		tags:  make([]uint64, n),
		dirty: make([]bool, n),
		links: make([]link, n),
		valid: make([]uint64, nSets),
		mru:   make([]uint8, nSets),
	}
}

// reset empties the cache in place. Only a set with a valid way can hold a
// nonzero tag, dirty bit or prefetch mark, so the other sets are skipped;
// links and mru are never read for an empty set.
func (c *cache) reset() {
	for s, v := range c.valid {
		if v != 0 {
			b := s * c.assoc
			clear(c.tags[b : b+c.assoc])
			clear(c.dirty[b : b+c.assoc])
			if c.pf != nil {
				clear(c.pf[b : b+c.assoc])
			}
			c.valid[s] = 0
		}
	}
}

// set returns lineAddr's set. Power-of-two set counts index by mask,
// others by modulo.
func (c *cache) set(lineAddr uint64) int {
	if c.nSets&(c.nSets-1) == 0 {
		return int(lineAddr & (c.nSets - 1))
	}
	return int(lineAddr % c.nSets)
}

// way returns the way of set s holding lineAddr, or -1.
func (c *cache) way(s int, lineAddr uint64) int {
	b := s * c.assoc
	tag := lineAddr + 1
	for i, t := range c.tags[b : b+c.assoc] {
		if t == tag {
			return i
		}
	}
	return -1
}

// find returns the index of the way holding lineAddr, or -1, without
// touching LRU state.
func (c *cache) find(lineAddr uint64) int {
	s := c.set(lineAddr)
	if w := c.way(s, lineAddr); w >= 0 {
		return s*c.assoc + w
	}
	return -1
}

// lookup probes for the line; on hit it makes the way the set's most
// recently used and returns its index.
func (c *cache) lookup(lineAddr uint64) (int, bool) {
	s := c.set(lineAddr)
	w := c.way(s, lineAddr)
	if w < 0 {
		return -1, false
	}
	c.touch(s, w)
	return s*c.assoc + w, true
}

// touch moves valid way w of set s to the head of its recency list.
func (c *cache) touch(s, w int) {
	m := int(c.mru[s])
	if w == m {
		return
	}
	l := c.links[s*c.assoc : (s+1)*c.assoc]
	// The tail becomes the head by rotating the circular list; any other
	// way is unlinked and relinked between tail and head.
	if lru := int(l[m].prev); w != lru {
		p, n := l[w].prev, l[w].next
		l[p].next, l[n].prev = n, p
		l[w] = link{prev: uint8(lru), next: uint8(m)}
		l[lru].next, l[m].prev = uint8(w), uint8(w)
	}
	c.mru[s] = uint8(w)
}

// fill inserts a line the caller knows is absent, evicting LRU if needed.
// It returns the evicted line's address and whether the victim was dirty
// (needing writeback); evictedValid is false when an empty way was used.
// The victim is the lowest-numbered invalid way if there is one, else the
// least recently used.
func (c *cache) fill(lineAddr uint64, dirty bool) (evicted uint64, evictedDirty, evictedValid bool) {
	s := c.set(lineAddr)
	b := s * c.assoc
	l := c.links[b : b+c.assoc]
	var w int
	if free := ^c.valid[s] & c.full; free != 0 {
		w = bits.TrailingZeros64(free)
		if c.valid[s] == 0 {
			l[w] = link{prev: uint8(w), next: uint8(w)}
		} else {
			m := c.mru[s]
			lru := l[m].prev
			l[w] = link{prev: lru, next: m}
			l[lru].next, l[m].prev = uint8(w), uint8(w)
		}
		c.valid[s] |= 1 << uint(w)
	} else {
		// Evict the tail; rotating the list makes it the head.
		w = int(l[c.mru[s]].prev)
		evicted, evictedDirty, evictedValid = c.tags[b+w]-1, c.dirty[b+w], true
	}
	c.mru[s] = uint8(w)
	c.tags[b+w], c.dirty[b+w] = lineAddr+1, dirty
	if c.pf != nil {
		c.pf[b+w] = false
	}
	return evicted, evictedDirty, evictedValid
}

// invalidate removes the line if present; it returns whether it was present
// and whether it was dirty.
func (c *cache) invalidate(lineAddr uint64) (present, dirty bool) {
	s := c.set(lineAddr)
	w := c.way(s, lineAddr)
	if w < 0 {
		return false, false
	}
	b := s * c.assoc
	dirty = c.dirty[b+w]
	c.tags[b+w], c.dirty[b+w] = 0, false
	if c.valid[s] &^= 1 << uint(w); c.valid[s] != 0 {
		l := c.links[b : b+c.assoc]
		p, n := l[w].prev, l[w].next
		l[p].next, l[n].prev = n, p
		if int(c.mru[s]) == w {
			c.mru[s] = n
		}
	}
	return true, dirty
}

// markDirty sets the dirty bit if the line is present, refreshing LRU, and
// reports whether it was.
func (c *cache) markDirty(lineAddr uint64) bool {
	w, ok := c.lookup(lineAddr)
	if ok {
		c.dirty[w] = true
	}
	return ok
}

// clean clears the dirty bit if present (after a coherence downgrade),
// refreshing LRU.
func (c *cache) clean(lineAddr uint64) {
	if w, ok := c.lookup(lineAddr); ok {
		c.dirty[w] = false
	}
}

// Stats aggregates hierarchy activity.
type Stats struct {
	LevelHits       []int64 // per configured level (private levels summed over cores)
	LevelMisses     []int64
	LevelBytesIn    []int64
	DRAMAccesses    int64
	DRAMBytes       int64 // bytes moved to/from DRAM (fills + writebacks)
	Invalidations   int64 // coherence invalidation events
	CacheTransfers  int64 // cache-to-cache interventions
	CoherenceBytes  int64 // bytes moved core-to-core by coherence
	WritebackBytes  int64 // dirty bytes written back to DRAM
	Prefetches      int64 // prefetch fills issued
	PrefetchBytes   int64 // DRAM bytes moved by prefetches (also in DRAMBytes)
	LocalDRAMBytes  int64 // NUMA-local DRAM bytes (when NUMA accounting is on)
	RemoteDRAMBytes int64 // NUMA-remote DRAM bytes
	AccessCount     int64
	TotalCycles     float64
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	spec    *machine.Spec
	cores   int
	private [][]*cache // [core][privateLevel]
	shared  []*cache   // shared levels in order
	privIdx []int      // indices into spec.Levels for private levels
	shIdx   []int      // indices into spec.Levels for shared levels
	dir     dirTable   // coherence directory; unused with one core
	stats   Stats
	line    uint64 // line size in bytes (uniform across levels)

	prefetchOn bool // un-consumed prefetches are marked in the shared levels' pf

	numaOn     bool
	placement  Placement
	firstTouch map[uint64]int // page -> home domain, first-touch policy
	// Demand DRAM lines fetched from a remote domain since the last
	// ResetStats, under each placement (see RemoteLines).
	remoteFirstTouch, remoteInterleave int64
}

// EnablePrefetch turns on a next-line prefetcher: every demand miss to
// DRAM also fetches the following line into the shared levels, and a
// demand hit on a prefetched line keeps the chain running — the behaviour
// of a simple hardware stream prefetcher. Prefetches hide latency but
// still move bytes: DRAMBytes (and therefore DRAM energy) includes them,
// which is exactly the W1 ablation story (F17).
func (h *Hierarchy) EnablePrefetch() {
	h.prefetchOn = true
	for _, c := range h.shared {
		if c.pf == nil {
			c.pf = make([]bool, len(c.tags))
		}
	}
}

// NewHierarchy builds the hierarchy for the given machine spec and core
// count. All levels must share one line size (checked). Core count may be
// at most 64 because the coherence directory uses a bitmask.
func NewHierarchy(spec *machine.Spec, cores int) (*Hierarchy, error) {
	if cores < 1 || cores > 64 {
		return nil, fmt.Errorf("mem: cores must be in [1,64], got %d", cores)
	}
	if len(spec.Levels) == 0 {
		return nil, fmt.Errorf("mem: machine %q has no cache levels", spec.Name)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{
		spec:  spec,
		cores: cores,
		line:  uint64(spec.Levels[0].LineBytes),
	}
	for i, l := range spec.Levels {
		if uint64(l.LineBytes) != h.line {
			return nil, fmt.Errorf("mem: level %s line size %d != %d", l.Name, l.LineBytes, h.line)
		}
		if l.Shared {
			h.shIdx = append(h.shIdx, i)
		} else {
			h.privIdx = append(h.privIdx, i)
		}
	}
	h.private = make([][]*cache, cores)
	for c := 0; c < cores; c++ {
		for _, i := range h.privIdx {
			h.private[c] = append(h.private[c], newCache(spec.Levels[i]))
		}
	}
	for _, i := range h.shIdx {
		h.shared = append(h.shared, newCache(spec.Levels[i]))
	}
	h.stats.LevelHits = make([]int64, len(spec.Levels))
	h.stats.LevelMisses = make([]int64, len(spec.Levels))
	h.stats.LevelBytesIn = make([]int64, len(spec.Levels))
	return h, nil
}

// AccessResult describes one (possibly multi-line) access.
type AccessResult struct {
	Cycles    float64
	HitLevel  int // deepest structure consulted: 0..len(levels)-1, or DRAMLevel
	LinesUsed int
}

// DRAMLevel is the HitLevel value meaning the access went to memory.
const DRAMLevel = -1

// Read performs a read by core from addr of the given size.
func (h *Hierarchy) Read(core int, addr uint64, size int) AccessResult {
	return h.access(core, addr, size, false)
}

// Write performs a write by core to addr of the given size.
func (h *Hierarchy) Write(core int, addr uint64, size int) AccessResult {
	return h.access(core, addr, size, true)
}

func (h *Hierarchy) access(core int, addr uint64, size int, write bool) AccessResult {
	if size <= 0 {
		return AccessResult{}
	}
	var res AccessResult
	res.HitLevel = 0
	first := addr / h.line
	last := (addr + uint64(size) - 1) / h.line
	for la := first; la <= last; la++ {
		r := h.accessLine(core, la, write)
		res.Cycles += r.Cycles
		res.LinesUsed++
		// Report the *worst* (deepest) level touched across the lines.
		if r.HitLevel == DRAMLevel || (res.HitLevel != DRAMLevel && r.HitLevel > res.HitLevel) {
			res.HitLevel = r.HitLevel
		}
	}
	h.stats.AccessCount++
	h.stats.TotalCycles += res.Cycles
	return res
}

// accessLine handles one line-granular access with coherence.
func (h *Hierarchy) accessLine(core int, lineAddr uint64, write bool) AccessResult {
	var cycles float64
	levels := h.spec.Levels

	// Coherence first: a write needs exclusive ownership; a read needs the
	// owner's modified copy pushed down. With one core there is no
	// coherence, and skipping the directory makes single-core traces
	// (the W1 blocking sweeps) several times faster.
	var e dirEntry
	var tracked bool
	if h.cores > 1 {
		e, tracked = h.dir.get(lineAddr)
	}
	if tracked {
		if write {
			if e.modified && int(e.owner) != core {
				// Cache-to-cache intervention: fetch the modified copy
				// and invalidate the owner.
				h.invalidateEverywhere(int(e.owner), lineAddr)
				h.stats.CacheTransfers++
				h.stats.CoherenceBytes += int64(h.line)
				h.stats.Invalidations++
				cycles += h.interventionCycles()
				e.sharers &^= 1 << uint(e.owner)
			}
			// Invalidate all other sharers.
			for c := 0; c < h.cores; c++ {
				if c != core && e.sharers&(1<<uint(c)) != 0 {
					h.invalidateEverywhere(c, lineAddr)
					h.stats.Invalidations++
					e.sharers &^= 1 << uint(c)
				}
			}
			e.modified = true
			e.owner = int32(core)
		} else if e.modified && int(e.owner) != core {
			// Read of a remotely modified line: owner downgrades to shared
			// and forwards the data.
			h.cleanEverywhere(int(e.owner), lineAddr)
			h.stats.CacheTransfers++
			h.stats.CoherenceBytes += int64(h.line)
			cycles += h.interventionCycles()
			e.modified = false
		}
	}

	// Probe private levels nearest-first.
	priv := h.private[core]
	for pi, c := range priv {
		if w, ok := c.lookup(lineAddr); ok {
			li := h.privIdx[pi]
			h.stats.LevelHits[li]++
			cycles += levels[li].LatencyCycles
			if write {
				c.dirty[w] = true
			}
			h.track(core, lineAddr, e, write)
			// Fill the line into the levels above the hit for next time.
			h.fillPrivate(core, lineAddr, pi-1, write)
			return AccessResult{Cycles: cycles, HitLevel: li}
		}
		h.stats.LevelMisses[h.privIdx[pi]]++
		cycles += levels[h.privIdx[pi]].LatencyCycles
	}

	// Probe shared levels.
	for si, c := range h.shared {
		if w, ok := c.lookup(lineAddr); ok {
			li := h.shIdx[si]
			h.stats.LevelHits[li]++
			cycles += levels[li].LatencyCycles
			h.fillPrivate(core, lineAddr, len(priv)-1, write)
			h.track(core, lineAddr, e, write)
			if h.prefetchOn && h.consumePrefetch(si, w, lineAddr) {
				h.issuePrefetch(core, lineAddr+1)
			}
			return AccessResult{Cycles: cycles, HitLevel: li}
		}
		h.stats.LevelMisses[h.shIdx[si]]++
		cycles += levels[h.shIdx[si]].LatencyCycles
	}

	// DRAM.
	h.stats.DRAMAccesses++
	h.stats.DRAMBytes += int64(h.line)
	cycles += h.spec.DRAM.LatencyCycles
	cycles += float64(h.line) / h.spec.DRAM.BytesPerSec * h.spec.ClockHz
	cycles += h.numaDRAMPenalty(core, lineAddr)
	if h.prefetchOn {
		h.issuePrefetch(core, lineAddr+1)
	}
	// Fill shared levels deepest-first, then private.
	for si := len(h.shared) - 1; si >= 0; si-- {
		h.fillShared(si, lineAddr, false)
	}
	h.fillPrivate(core, lineAddr, len(priv)-1, write)
	h.track(core, lineAddr, e, write)
	return AccessResult{Cycles: cycles, HitLevel: DRAMLevel}
}

// interventionCycles is the cost of a cache-to-cache transfer; we use the
// deepest shared level's latency as the interconnect proxy, or DRAM latency
// if there is no shared cache.
func (h *Hierarchy) interventionCycles() float64 {
	if len(h.shIdx) > 0 {
		return h.spec.Levels[h.shIdx[len(h.shIdx)-1]].LatencyCycles
	}
	return h.spec.DRAM.LatencyCycles
}

// fillPrivate installs the line into core's private levels from `from` up to
// L1 (index 0). Every caller has just probed those levels and missed, and
// evictions only cascade deeper, so the line is absent from each level it
// fills. Evicted dirty lines are written back toward DRAM.
func (h *Hierarchy) fillPrivate(core int, lineAddr uint64, from int, dirty bool) {
	for pi := from; pi >= 0; pi-- {
		evicted, evDirty, evValid := h.private[core][pi].fill(lineAddr, dirty)
		h.stats.LevelBytesIn[h.privIdx[pi]] += int64(h.line)
		if evValid {
			h.handlePrivateEviction(core, pi, evicted, evDirty)
		}
	}
}

// handlePrivateEviction processes a line evicted from a private level:
// writeback if dirty, and directory cleanup when the core no longer holds
// the line anywhere privately.
func (h *Hierarchy) handlePrivateEviction(core, fromLevel int, lineAddr uint64, dirty bool) {
	if dirty {
		// Write back into the next private level, else shared, else DRAM.
		if fromLevel+1 < len(h.private[core]) {
			nc := h.private[core][fromLevel+1]
			if !nc.markDirty(lineAddr) {
				ev, evD, evV := nc.fill(lineAddr, true)
				h.stats.LevelBytesIn[h.privIdx[fromLevel+1]] += int64(h.line)
				if evV {
					h.handlePrivateEviction(core, fromLevel+1, ev, evD)
				}
			}
		} else if len(h.shared) > 0 {
			if !h.shared[0].markDirty(lineAddr) {
				h.fillShared(0, lineAddr, true)
			}
		} else {
			h.stats.DRAMBytes += int64(h.line)
			h.stats.WritebackBytes += int64(h.line)
		}
	}
	// Directory cleanup: does the core still hold this line privately?
	if h.cores == 1 {
		return
	}
	if !h.coreHolds(core, lineAddr) {
		if e, ok := h.dir.get(lineAddr); ok {
			e.sharers &^= 1 << uint(core)
			if e.modified && int(e.owner) == core {
				e.modified = false
			}
			if e.sharers == 0 {
				h.dir.del(lineAddr)
			} else {
				h.dir.put(lineAddr, e)
			}
		}
	}
}

// fillShared installs a line that is absent from shared level si,
// writing a dirty victim back to DRAM.
func (h *Hierarchy) fillShared(si int, lineAddr uint64, dirty bool) {
	_, evD, evV := h.shared[si].fill(lineAddr, dirty)
	h.stats.LevelBytesIn[h.shIdx[si]] += int64(h.line)
	if evV && evD {
		h.stats.DRAMBytes += int64(h.line)
		h.stats.WritebackBytes += int64(h.line)
	}
}

// issuePrefetch fetches the line into the shared levels (or, when the
// machine has no shared cache, into the deepest private level of the core
// whose miss triggered it) off the critical path: no cycles are charged,
// but the DRAM traffic is.
func (h *Hierarchy) issuePrefetch(core int, lineAddr uint64) {
	// Already resident somewhere shared? Then nothing to do.
	for _, c := range h.shared {
		if c.find(lineAddr) >= 0 {
			return
		}
	}
	h.stats.Prefetches++
	h.stats.DRAMBytes += int64(h.line)
	h.stats.PrefetchBytes += int64(h.line)
	if len(h.shared) > 0 {
		for si := len(h.shared) - 1; si >= 0; si-- {
			h.fillShared(si, lineAddr, false)
			c := h.shared[si]
			c.pf[c.find(lineAddr)] = true
		}
	} else {
		// No shared level: the prefetched copy is private to core, so the
		// directory must know about it for later writes to invalidate it.
		pi := len(h.private[core]) - 1
		c := h.private[core][pi]
		if _, ok := c.lookup(lineAddr); !ok {
			ev, evD, evV := c.fill(lineAddr, false)
			h.stats.LevelBytesIn[h.privIdx[pi]] += int64(h.line)
			if evV {
				h.handlePrivateEviction(core, pi, ev, evD)
			}
		}
		e, _ := h.dir.get(lineAddr)
		h.track(core, lineAddr, e, false)
	}
}

// consumePrefetch reports whether a demand hit on lineAddr, found in way w
// of shared level si, uses a prefetched copy, and clears the line's mark in
// every shared level, so the chain it continues is issued once. The levels
// above si have just missed, so only si and the deeper ones can hold it.
func (h *Hierarchy) consumePrefetch(si, w int, lineAddr uint64) bool {
	marked := h.shared[si].pf[w]
	h.shared[si].pf[w] = false
	for _, c := range h.shared[si+1:] {
		if v := c.find(lineAddr); v >= 0 && c.pf[v] {
			c.pf[v] = false
			marked = true
		}
	}
	return marked
}

func (h *Hierarchy) coreHolds(core int, lineAddr uint64) bool {
	for _, c := range h.private[core] {
		if c.find(lineAddr) >= 0 {
			return true
		}
	}
	return false
}

func (h *Hierarchy) invalidateEverywhere(core int, lineAddr uint64) {
	for _, c := range h.private[core] {
		c.invalidate(lineAddr)
	}
}

func (h *Hierarchy) cleanEverywhere(core int, lineAddr uint64) {
	for _, c := range h.private[core] {
		c.clean(lineAddr)
	}
}

// track records core's private copy of lineAddr, as its writer if write,
// in e and stores e as the line's directory entry. accessLine passes the
// entry it read before probing, updated by coherence: nothing in between
// changes it, because the directory cleanup after an eviction never
// reaches the line being filled, which stays in the level it just entered.
func (h *Hierarchy) track(core int, lineAddr uint64, e dirEntry, write bool) {
	if h.cores == 1 {
		return
	}
	e.sharers |= 1 << uint(core)
	if write {
		e.modified, e.owner = true, int32(core)
	}
	h.dir.put(lineAddr, e)
}

// ResetStats clears the accumulated statistics, keeping cache contents and
// NUMA homing intact — useful for excluding a warm-up or initialisation
// phase from measurement. It allocates nothing: Stats hands out copies, so
// the per-level counters are cleared in place.
func (h *Hierarchy) ResetStats() {
	hits, misses, in := h.stats.LevelHits, h.stats.LevelMisses, h.stats.LevelBytesIn
	clear(hits)
	clear(misses)
	clear(in)
	h.stats = Stats{LevelHits: hits, LevelMisses: misses, LevelBytesIn: in}
	h.remoteFirstTouch, h.remoteInterleave = 0, 0
}

// Reset empties the hierarchy in place — every cache, the coherence
// directory, the first-touch homes and the statistics — leaving it as
// NewHierarchy built it, with the prefetcher and NUMA accounting still as
// EnablePrefetch and EnableNUMA set them. It allocates nothing, so a sweep
// can run every point on one hierarchy.
func (h *Hierarchy) Reset() {
	for _, p := range h.private {
		for _, c := range p {
			c.reset()
		}
	}
	for _, c := range h.shared {
		c.reset()
	}
	h.dir.reset()
	clear(h.firstTouch)
	h.ResetStats()
}

// Stats returns a copy of the accumulated statistics.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	s.LevelHits = append([]int64(nil), h.stats.LevelHits...)
	s.LevelMisses = append([]int64(nil), h.stats.LevelMisses...)
	s.LevelBytesIn = append([]int64(nil), h.stats.LevelBytesIn...)
	return s
}

// TimeSec converts the accumulated cycles to seconds on this machine.
func (h *Hierarchy) TimeSec() float64 {
	return h.stats.TotalCycles * h.spec.CycleSec()
}

// ChargeEnergy adds the hierarchy's data-movement energy to the meter:
// per-level fills at the level's pJ/byte, DRAM traffic at DRAM pJ/byte, and
// coherence transfers at the LLC's pJ/byte.
func (h *Hierarchy) ChargeEnergy(m *energy.Meter) {
	for i, l := range h.spec.Levels {
		j := float64(h.stats.LevelBytesIn[i]) * l.PJPerByte * 1e-12
		if j > 0 {
			m.Add("cache:"+l.Name, j)
		}
	}
	if h.stats.DRAMBytes > 0 {
		m.Add(energy.DRAM, float64(h.stats.DRAMBytes)*h.spec.DRAM.PJPerByte*1e-12)
	}
	if h.stats.CoherenceBytes > 0 {
		pj := h.spec.Levels[len(h.spec.Levels)-1].PJPerByte
		m.Add("coherence", float64(h.stats.CoherenceBytes)*pj*1e-12)
	}
	if h.stats.RemoteDRAMBytes > 0 {
		extra := (h.spec.NUMA.RemotePJFactor - 1) * h.spec.DRAM.PJPerByte
		if extra > 0 {
			m.Add("numa-remote", float64(h.stats.RemoteDRAMBytes)*extra*1e-12)
		}
	}
}
