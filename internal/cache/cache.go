package cache

import (
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count used when NewLRU is given no
// explicit sharding; 16 keeps per-shard contention negligible for
// typical serving parallelism without fragmenting tiny capacities.
const DefaultShards = 16

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 // Get calls answered from the cache
	Misses    uint64 // Get calls that fell through
	Evictions uint64 // entries displaced by capacity pressure
	Entries   int    // entries currently resident
	Capacity  int    // maximum resident entries
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// LRU is a sharded, size-bounded, concurrency-safe LRU cache from
// string keys to values of type V. The zero value is not usable; call
// NewLRU.
type LRU[V any] struct {
	shards []shard[V]
	mask   uint32
	cap    int

	hits, misses, evictions atomic.Uint64
}

// shard is one lock domain: a hash bucket of the key space with its
// own recency list.
type shard[V any] struct {
	mu    sync.Mutex
	cap   int
	items map[string]*entry[V]
	// Most-recently-used first; nil head means empty.
	head, tail *entry[V]
}

type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// NewLRU builds a cache holding at most capacity entries, spread over
// DefaultShards shards (fewer when capacity is small, so every shard
// can hold at least one entry). capacity < 1 is treated as 1.
func NewLRU[V any](capacity int) *LRU[V] {
	if capacity < 1 {
		capacity = 1
	}
	shards := DefaultShards
	for shards > 1 && capacity/shards < 1 {
		shards /= 2
	}
	c := &LRU[V]{
		shards: make([]shard[V], shards),
		mask:   uint32(shards - 1),
		cap:    capacity,
	}
	for i := range c.shards {
		sc := capacity / shards
		if i < capacity%shards {
			sc++
		}
		c.shards[i] = shard[V]{cap: sc, items: make(map[string]*entry[V], sc)}
	}
	return c
}

// fnv1a hashes the key for shard selection (FNV-1a, 32-bit).
func fnv1a[K string | []byte](s K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Get returns the cached value for key, marking it most recently used.
func (c *LRU[V]) Get(key string) (V, bool) { return get(c, key) }

// GetBytes is Get for a key written into a caller's scratch buffer:
// the probe copies nothing, so a hit allocates nothing. Only Put makes
// a key string.
func (c *LRU[V]) GetBytes(key []byte) (V, bool) { return get(c, key) }

func get[V any, K string | []byte](c *LRU[V], key K) (V, bool) {
	s := &c.shards[fnv1a(key)&c.mask]
	s.mu.Lock()
	e, ok := s.items[string(key)]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Peek returns the cached value for key without updating recency or
// the hit/miss counters. It backs scans that probe several keys for
// one logical lookup — the convolution memo's longest-prefix search,
// which probes its prefixes as slices of one key buffer — and then
// record that lookup once via GetBytes.
func (c *LRU[V]) Peek(key []byte) (V, bool) {
	s := &c.shards[fnv1a(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[string(key)]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes key, evicting the shard's least recently
// used entry when the shard is full.
func (c *LRU[V]) Put(key string, val V) {
	s := &c.shards[fnv1a(key)&c.mask]
	s.mu.Lock()
	if e, ok := s.items[key]; ok {
		e.val = val
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	if len(s.items) >= s.cap {
		victim := s.tail
		s.unlink(victim)
		delete(s.items, victim.key)
		c.evictions.Add(1)
	}
	e := &entry[V]{key: key, val: val}
	s.items[key] = e
	s.pushFront(e)
	s.mu.Unlock()
}

// Len returns the number of resident entries.
func (c *LRU[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the effectiveness counters. The snapshot is not
// atomic across shards, which is fine for monitoring.
func (c *LRU[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  c.cap,
	}
}

// Intrusive doubly-linked recency list; callers hold s.mu.

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
