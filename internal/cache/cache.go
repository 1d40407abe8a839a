// Package cache is the lab's shared result cache: sharded to keep
// concurrent daemon traffic off a single lock (our own W5 remedy), and
// LRU-bounded per shard so a long-running process cannot grow without
// limit (the unboundedness the original tune.Cache had).
//
// The cache is generic over its value type: internal/tune stores modeled
// Cost pairs, internal/serve stores completed experiment outputs, and the
// T12 load simulator exercises this exact implementation single-threaded
// in virtual time, where its behaviour is deterministic.
package cache

import "sync"

// Default sizing when New is handed zeros: large enough that tuning runs
// and test suites never evict mid-run, small enough to bound a daemon.
const (
	DefaultCapacity = 4096
	DefaultShards   = 16
)

// entry is one cached value on its shard's LRU list (most recent at head).
type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// shard is one lock domain: a map index plus an intrusive LRU list.
type shard[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V]
	head    *entry[V] // most recently used
	tail    *entry[V] // least recently used, evicted first
	cap     int
	// Stats are kept per shard, under the shard lock, so the hot path
	// never touches a shared counter; Stats() aggregates on demand.
	hits, misses, evictions int64
}

// Cache is a sharded, LRU-bounded key/value cache.
// All methods are safe for concurrent use.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint64
}

// New returns a cache bounded to capacity entries spread over the given
// shard count. Non-positive arguments select DefaultCapacity and
// DefaultShards; the shard count is rounded up to a power of two and a
// shard always holds at least one entry.
func New[V any](capacity, shards int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{shards: make([]shard[V], n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry[V], perShard)
		c.shards[i].cap = perShard
	}
	return c
}

// fnv1a hashes the key for shard selection (FNV-1a, 64-bit).
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c *Cache[V]) shardOf(key string) *shard[V] {
	return &c.shards[fnv1a(key)&c.mask]
}

// Get returns the cached value for key, if present.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		s.misses++
		var zero V
		return zero, false
	}
	s.moveToFront(e)
	s.hits++
	return e.val, true
}

// Peek returns the cached value for key, if present, without counting a
// lookup in Stats or refreshing the entry's LRU position: a re-check by a
// caller whose Get of the key has already been counted.
func (c *Cache[V]) Peek(key string) (V, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put stores the value for key, evicting the shard's least recently used
// entry if the shard is full.
func (c *Cache[V]) Put(key string, v V) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		e.val = v
		s.moveToFront(e)
		return
	}
	if len(s.entries) >= s.cap {
		s.remove(s.tail)
		s.evictions++
	}
	e := &entry[V]{key: key, val: v}
	s.entries[key] = e
	s.pushFront(e)
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Cap returns the total entry bound across all shards.
func (c *Cache[V]) Cap() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].cap
	}
	return n
}

// Stats is an aggregated view of the cache's activity since creation.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Len       int   `json:"len"`
	Cap       int   `json:"cap"`
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats aggregates the per-shard counters.
func (c *Cache[V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Len += len(s.entries)
		st.Cap += s.cap
		s.mu.Unlock()
	}
	return st
}

// ---- intrusive LRU list (shard lock held) ----

func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *shard[V]) remove(e *entry[V]) {
	s.unlink(e)
	delete(s.entries, e.key)
}
