package mem

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tenways/internal/machine"
)

// refLine and refCache are the simulator's earlier cache: one []refLine
// slice per set, each way a struct scanned for its tag. They stay here as
// the reference the flat set-major cache must reproduce operation for
// operation.
type refLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

type refCache struct {
	sets    [][]refLine
	setMask uint64
	tick    uint64
}

func newRefCache(spec machine.LevelSpec) *refCache {
	nLines := spec.CapacityBytes / int64(spec.LineBytes)
	nSets := nLines / int64(spec.Assoc)
	c := &refCache{setMask: uint64(nSets - 1)}
	if nSets&(nSets-1) != 0 {
		// Non-power-of-two set counts index by modulo; mask stays unused.
		c.setMask = 0
	}
	c.sets = make([][]refLine, nSets)
	for i := range c.sets {
		c.sets[i] = make([]refLine, spec.Assoc)
	}
	return c
}

func (c *refCache) index(lineAddr uint64) uint64 {
	if c.setMask != 0 {
		return lineAddr & c.setMask
	}
	return lineAddr % uint64(len(c.sets))
}

func (c *refCache) lookup(lineAddr uint64) (*refLine, bool) {
	set := c.sets[c.index(lineAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			c.tick++
			set[i].lastUse = c.tick
			return &set[i], true
		}
	}
	return nil, false
}

// has probes without refreshing LRU, as coreHolds and issuePrefetch do.
func (c *refCache) has(lineAddr uint64) bool {
	set := c.sets[c.index(lineAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

func (c *refCache) fill(lineAddr uint64, dirty bool) (evicted uint64, evictedDirty, evictedValid bool) {
	set := c.sets[c.index(lineAddr)]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			evictedValid = false
			goto place
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	evicted = set[victim].tag
	evictedDirty = set[victim].dirty
	evictedValid = true
place:
	c.tick++
	set[victim] = refLine{tag: lineAddr, valid: true, dirty: dirty, lastUse: c.tick}
	return evicted, evictedDirty, evictedValid
}

func (c *refCache) invalidate(lineAddr uint64) (present, dirty bool) {
	set := c.sets[c.index(lineAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			d := set[i].dirty
			set[i] = refLine{}
			return true, d
		}
	}
	return false, false
}

func (c *refCache) markDirty(lineAddr uint64) bool {
	l, ok := c.lookup(lineAddr)
	if ok {
		l.dirty = true
	}
	return ok
}

func (c *refCache) clean(lineAddr uint64) {
	if l, ok := c.lookup(lineAddr); ok {
		l.dirty = false
	}
}

// refGeometries covers both tiny levels, the 48-way last-level cache the
// lab's default machine streams F20 through, and set counts that are not
// powers of two (indexed by modulo).
func refGeometries() map[string]machine.LevelSpec {
	t := tiny()
	p := machine.Petascale2009()
	return map[string]machine.LevelSpec{
		"tiny-L1":        t.Levels[0],
		"tiny-LLC":       t.Levels[1],
		"petascale-L3":   p.Levels[2],
		"6sets-3way":     {Name: "odd", CapacityBytes: 18 * 64, LineBytes: 64, Assoc: 3},
		"12sets-48way":   {Name: "odd48", CapacityBytes: 12 * 48 * 64, LineBytes: 64, Assoc: 48},
		"1set-fullassoc": {Name: "fa", CapacityBytes: 8 * 64, LineBytes: 64, Assoc: 8},
	}
}

// TestCacheMatchesReference drives random lookup/fill/invalidate/
// markDirty/clean sequences against the flat cache and the reference and
// requires the same answer from every operation. Lines are drawn from a
// few sets and about twice as many tags as there are ways, so sets fill,
// evict and refill throughout.
func TestCacheMatchesReference(t *testing.T) {
	for name, spec := range refGeometries() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				checkAgainstReference(t, spec, seed, 20000)
			}
		})
	}
}

func checkAgainstReference(t *testing.T, spec machine.LevelSpec, seed int64, ops int) {
	t.Helper()
	got, ref := newCache(spec), newRefCache(spec)
	nSets := uint64(len(ref.sets))
	rng := rand.New(rand.NewSource(seed))
	hot := make([]uint64, min(4, int(nSets)))
	for i := range hot {
		hot[i] = uint64(rng.Int63n(int64(nSets)))
	}
	tags := 2*spec.Assoc + 1
	for i := 0; i < ops; i++ {
		la := uint64(rng.Intn(tags))*nSets + hot[rng.Intn(len(hot))]
		switch op := rng.Intn(10); {
		case op < 3:
			_, gotOK := got.lookup(la)
			_, refOK := ref.lookup(la)
			if gotOK != refOK {
				t.Fatalf("seed %d op %d: lookup(%d) = %v, reference %v", seed, i, la, gotOK, refOK)
			}
		case op < 6:
			if ref.has(la) != (got.find(la) >= 0) {
				t.Fatalf("seed %d op %d: find(%d) disagrees with reference", seed, i, la)
			}
			if ref.has(la) {
				continue // fill's contract: the caller has just missed
			}
			dirty := rng.Intn(2) == 0
			ge, gd, gv := got.fill(la, dirty)
			re, rd, rv := ref.fill(la, dirty)
			if gv != rv || (rv && (ge != re || gd != rd)) {
				t.Fatalf("seed %d op %d: fill(%d) evicted (%d,%v,%v), reference (%d,%v,%v)",
					seed, i, la, ge, gd, gv, re, rd, rv)
			}
		case op < 8:
			gp, gd := got.invalidate(la)
			rp, rd := ref.invalidate(la)
			if gp != rp || gd != rd {
				t.Fatalf("seed %d op %d: invalidate(%d) = (%v,%v), reference (%v,%v)", seed, i, la, gp, gd, rp, rd)
			}
		case op < 9:
			if g, r := got.markDirty(la), ref.markDirty(la); g != r {
				t.Fatalf("seed %d op %d: markDirty(%d) = %v, reference %v", seed, i, la, g, r)
			}
		default:
			got.clean(la)
			ref.clean(la)
		}
	}
	checkContents(t, got, ref)
}

// checkContents requires got to hold what ref holds, way for way, and every
// set's recency order to be the order of ref's LRU stamps.
func checkContents(t *testing.T, got *cache, ref *refCache) {
	t.Helper()
	for s := range ref.sets {
		checkSet(t, got, ref, s)
	}
}

// checkSet is checkContents for set s alone.
func checkSet(t *testing.T, got *cache, ref *refCache, s int) {
	t.Helper()
	for w, l := range ref.sets[s] {
		i := s*got.assoc + w
		valid := got.tags[i] != 0
		if valid != l.valid || valid != (got.valid[s]&(1<<uint(w)) != 0) ||
			(valid && (got.tags[i]-1 != l.tag || got.dirty[i] != l.dirty)) {
			t.Fatalf("set %d way %d holds (tag+1 %d, dirty %v, valid bit %v), reference %+v",
				s, w, got.tags[i], got.dirty[i], got.valid[s]&(1<<uint(w)) != 0, l)
		}
	}
	if g, r := got.recency(s), ref.recency(s); !slices.Equal(g, r) {
		t.Fatalf("set %d: ways by recency %v, reference %v", s, g, r)
	}
}

// recency lists set s's valid ways from most to least recently used by
// walking its list from the head, checking that every prev link mirrors a
// next link.
func (c *cache) recency(s int) []int {
	var order []int
	if c.valid[s] == 0 {
		return order
	}
	l := c.links[s*c.assoc : (s+1)*c.assoc]
	w := int(c.mru[s])
	for range bits.OnesCount64(c.valid[s]) {
		order = append(order, w)
		n := int(l[w].next)
		if int(l[n].prev) != w {
			return append(order, -1) // broken link: cannot match the reference
		}
		w = n
	}
	if w != int(c.mru[s]) {
		order = append(order, -1) // the list is not a cycle over the valid ways
	}
	return order
}

// recency lists set s's valid ways from the newest stamp to the oldest.
func (c *refCache) recency(s int) []int {
	var order []int
	for w, l := range c.sets[s] {
		if l.valid {
			order = append(order, w)
		}
	}
	set := c.sets[s]
	sort.Slice(order, func(i, j int) bool { return set[order[i]].lastUse > set[order[j]].lastUse })
	return order
}

// FuzzCacheMatchesRef runs the cache and the reference side by side on a
// geometry and an operation sequence read from the input, comparing every
// answer and the touched set's contents and recency order after every
// operation. ops[0] picks the associativity (1–64) and ops[1] the set count
// (1–16, powers of two and not). Each following 3-byte group is one
// operation: its kind and dirty bit, then the line's tag (one of 2·assoc+1)
// and its set.
func FuzzCacheMatchesRef(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		assoc, nSets := 1+int(ops[0])%machine.MaxAssoc, 1+int(ops[1])%16
		spec := machine.LevelSpec{Name: "fuzz", CapacityBytes: int64(nSets * assoc * 64), LineBytes: 64, Assoc: assoc}
		got, ref := newCache(spec), newRefCache(spec)
		tags := 2*assoc + 1
		for i := 2; i+2 < len(ops); i += 3 {
			op, s := ops[i], int(ops[i+2])%nSets
			la := uint64(int(ops[i+1])%tags)*uint64(nSets) + uint64(s)
			dirty := op&0x80 != 0
			switch op % 8 {
			case 0, 1:
				_, gotOK := got.lookup(la)
				_, refOK := ref.lookup(la)
				if gotOK != refOK {
					t.Fatalf("op %d: lookup(%d) = %v, reference %v", i/3, la, gotOK, refOK)
				}
			case 2, 3:
				if has := ref.has(la); has != (got.find(la) >= 0) {
					t.Fatalf("op %d: find(%d) disagrees with reference (resident %v)", i/3, la, has)
				} else if has {
					break // fill's contract: the caller has just missed
				}
				ge, gd, gv := got.fill(la, dirty)
				re, rd, rv := ref.fill(la, dirty)
				if gv != rv || (rv && (ge != re || gd != rd)) {
					t.Fatalf("op %d: fill(%d) evicted (%d,%v,%v), reference (%d,%v,%v)", i/3, la, ge, gd, gv, re, rd, rv)
				}
			case 4:
				gp, gd := got.invalidate(la)
				rp, rd := ref.invalidate(la)
				if gp != rp || gd != rd {
					t.Fatalf("op %d: invalidate(%d) = (%v,%v), reference (%v,%v)", i/3, la, gp, gd, rp, rd)
				}
			case 5:
				if g, r := got.markDirty(la), ref.markDirty(la); g != r {
					t.Fatalf("op %d: markDirty(%d) = %v, reference %v", i/3, la, g, r)
				}
			case 6:
				got.clean(la)
				ref.clean(la)
			default:
				got.reset()
				ref = newRefCache(spec)
				checkContents(t, got, ref)
			}
			checkSet(t, got, ref, s)
		}
		checkContents(t, got, ref)
	})
}
