package tune

import "tenways/internal/cache"

// defaultCacheEntries bounds a tuning cache. Remedy-parameter spaces hold
// at most a few hundred points per (machine, tunable), so this never
// evicts within a run; the bound exists so a cache shared by a
// long-running process (the wastelabd daemon tunes on demand) cannot grow
// without limit — the unboundedness the original map-backed Cache had.
const defaultCacheEntries = 4096

// Cache memoizes objective evaluations across tuning runs. Keys combine
// the workload/machine identity (the Options.CacheKey prefix) with the
// canonical point key, so a cache can safely be shared between strategies,
// repeated runs, and different tunables: a repeated tune of the same point
// performs zero fresh evaluations.
//
// Cache is a thin wrapper over the generalized internal/cache (sharded,
// LRU-bounded); unlike the original unbounded map it evicts
// least-recently-used evaluations past its capacity. Keep the capacity
// comfortably above a search's working set — Run.Eval re-reads a batch's
// results from the cache when committing them.
type Cache struct {
	c *cache.Cache[Cost]
}

// NewCache returns an evaluation cache with the default bound.
func NewCache() *Cache { return NewCacheSized(defaultCacheEntries) }

// NewCacheSized returns an evaluation cache bounded to capacity entries
// (<= 0 selects the default bound).
func NewCacheSized(capacity int) *Cache {
	if capacity <= 0 {
		capacity = defaultCacheEntries
	}
	return &Cache{c: cache.New[Cost](capacity, 0)}
}

// Get returns the memoized cost for key, if present.
func (c *Cache) Get(key string) (Cost, bool) { return c.c.Get(key) }

// Put memoizes the cost for key.
func (c *Cache) Put(key string, v Cost) { c.c.Put(key, v) }

// Len returns the number of memoized evaluations.
func (c *Cache) Len() int { return c.c.Len() }
