package cache

import (
	"strconv"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New[int](8, 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	c.Put("a", 3) // overwrite
	if v, _ := c.Get("a"); v != 3 {
		t.Fatalf("Get(a) after overwrite = %d, want 3", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRUBoundAndEvictionOrder(t *testing.T) {
	c := New[int](3, 1) // one shard, three entries
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	// Touch a so b becomes the LRU.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("d", 4) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should survive", k)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (bounded)", c.Len())
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestBoundHoldsUnderChurn(t *testing.T) {
	c := New[int](64, 8)
	for i := 0; i < 10_000; i++ {
		c.Put("k"+strconv.Itoa(i), i)
	}
	if c.Len() > c.Cap() {
		t.Fatalf("Len %d exceeds Cap %d", c.Len(), c.Cap())
	}
}

func TestStats(t *testing.T) {
	c := New[int](8, 2)
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("nope")
	// Peek finds what Get finds but counts no lookup.
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v; want 1, true", v, ok)
	}
	if _, ok := c.Peek("nope"); ok {
		t.Fatal("Peek(nope) found an entry")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("Stats = %+v, want 2 hits / 1 miss", st)
	}
	if r := st.HitRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("HitRatio = %g, want 2/3", r)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := New[int](0, 0)
	if c.Cap() < DefaultCapacity {
		t.Fatalf("Cap = %d, want >= %d", c.Cap(), DefaultCapacity)
	}
	if len(c.shards) != DefaultShards {
		t.Fatalf("shards = %d, want %d", len(c.shards), DefaultShards)
	}
}

// TestConcurrentChurn exercises the sharded paths under -race: readers
// and writers against a small bound.
func TestConcurrentChurn(t *testing.T) {
	c := New[int](128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := "k" + strconv.Itoa((g*31+i)%500)
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > c.Cap() {
		t.Fatalf("Len %d exceeds Cap %d after churn", c.Len(), c.Cap())
	}
}
