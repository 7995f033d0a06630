package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := NewLRU[int](8)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("a", 10) // refresh replaces the value
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("refresh lost: got %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 2 || st.Capacity != 8 {
		t.Fatalf("stats %+v", st)
	}
}

// sameShardKeys crafts n distinct keys hashing into c's shard 0, so
// LRU ordering is observable regardless of shard count.
func sameShardKeys(c *LRU[int], n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if fnv1a(k)&c.mask == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestEvictionOrder(t *testing.T) {
	c := NewLRU[int](48) // 16 shards × 3 entries each
	keys := sameShardKeys(c, 4)
	shardCap := c.shards[0].cap
	if shardCap != 3 {
		t.Fatalf("expected shard capacity 3, got %d", shardCap)
	}
	c.Put(keys[0], 0)
	c.Put(keys[1], 1)
	c.Put(keys[2], 2)
	c.Get(keys[0]) // promote keys[0]; keys[1] is now LRU
	c.Put(keys[3], 3)
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("recently used key %q evicted", k)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestCapacityBound(t *testing.T) {
	const capacity = 100
	c := NewLRU[int](capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if n := c.Len(); n > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 10× overload")
	}
}

func TestTinyCapacity(t *testing.T) {
	for _, capacity := range []int{-1, 0, 1, 2, 3} {
		c := NewLRU[int](capacity)
		for i := 0; i < 10; i++ {
			c.Put(fmt.Sprintf("k%d", i), i)
		}
		want := capacity
		if want < 1 {
			want = 1
		}
		if n := c.Len(); n > want {
			t.Fatalf("capacity %d: %d entries resident", capacity, n)
		}
	}
}

func TestHitRate(t *testing.T) {
	var zero Stats
	if zero.HitRate() != 0 {
		t.Fatal("zero stats should have 0 hit rate")
	}
	c := NewLRU[string](4)
	c.Put("x", "v")
	c.Get("x")
	c.Get("x")
	c.Get("y")
	if hr := c.Stats().HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate %v, want 2/3", hr)
	}
}

// TestConcurrent hammers the cache from many goroutines; run with
// -race to verify the sharded locking.
func TestConcurrent(t *testing.T) {
	c := NewLRU[int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("key-%d", (w*31+i)%128)
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 64 {
		t.Fatalf("capacity exceeded under concurrency: %d", n)
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}
