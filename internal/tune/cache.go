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
// Cache is the generalized internal/cache (sharded, LRU-bounded) over
// Cost; unlike the original unbounded map it evicts least-recently-used
// evaluations past its capacity. Any capacity is correct: an eviction
// only costs a repeated objective call.
type Cache = cache.Cache[Cost]

// NewCache returns an evaluation cache with the default bound.
func NewCache() *Cache { return cache.New[Cost](defaultCacheEntries, 0) }
