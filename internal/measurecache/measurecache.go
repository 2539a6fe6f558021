// Package measurecache provides a bounded, sharded LRU cache mapping file
// content to its measured state, shared across the sessions of a detector
// host. Every host keeps one (host.Config.MeasureCache; a host given none
// makes its own), so identical bytes observed by many sessions — shared
// corpora, deduplicated stores, fleet-wide ransom-note drops — are measured
// once: the expensive kernels (magic sniff, full-file Shannon, sdhash
// digest) run on the first sighting and every later sighting is a hash
// lookup.
//
// Entries are keyed by content, not by file identity: two keyed 64-bit
// hash/maphash sums over the full content, under two seeds drawn once per
// process, plus the content length. The cache does not retain content for
// full equality verification — see Key for the collision tradeoff.
package measurecache

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Key identifies cached content. Two different byte strings collide only if
// they agree on both 64-bit sums AND their length — a probability on the
// order of 2^-128 per pair, far below any operational concern. The cache
// deliberately does not store content for byte-exact verification: doubling
// resident bytes to guard against a 2^-128 event is the wrong trade for a
// detection-side cache whose worst collision outcome is one file scored
// with another file's measurement.
//
// The sums are keyed. The cache is shared by every tenant of a host and
// its keys are built from attacker-written bytes, so an unkeyed public hash
// would let crafted content aim for a collision. The seeds are random per
// process and never leave it: keys are not persisted, so nothing depends on
// them being stable across restarts.
type Key struct {
	h1, h2 uint64
	len    int
}

// seed1 and seed2 key the two sums; drawn once per process.
var seed1, seed2 = maphash.MakeSeed(), maphash.MakeSeed()

// KeyOf computes the cache key for content.
func KeyOf(content []byte) Key {
	return Key{h1: maphash.Bytes(seed1, content), h2: maphash.Bytes(seed2, content), len: len(content)}
}

// shardCount is the number of independently locked cache shards (power of
// two): concurrent sessions hitting different content never contend.
const shardCount = 16

type entry struct {
	key  Key
	val  any
	cost int64
}

// shard is one independently locked slice of the cache. Its map and list
// are allocated on its first Put, so an idle cache holds no per-shard heap.
type shard struct {
	mu    sync.Mutex
	m     map[Key]*list.Element
	order *list.List // front = least recently used
	bytes int64
	max   int64
}

// Cache is a sharded, byte-bounded LRU. Values are immutable once inserted:
// callers must never mutate a value after Put or after receiving it from
// Get, since the same value is shared by every session that hits.
type Cache struct {
	shards [shardCount]shard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	capacity  int64
}

// New returns a cache bounded to roughly maxBytes of accounted entry cost.
// The bound is split evenly across shards, so per-shard skew can evict a
// little early; the cache never exceeds maxBytes. A maxBytes ≤ 0 cache
// accepts no entries (every Get misses).
func New(maxBytes int64) *Cache {
	c := &Cache{capacity: maxBytes}
	per := maxBytes / shardCount
	for i := range c.shards {
		c.shards[i].max = per
	}
	return c
}

func (c *Cache) shard(k Key) *shard {
	return &c.shards[k.h2&(shardCount-1)]
}

// Get returns the cached value for k, refreshing its recency.
func (c *Cache) Get(k Key) (any, bool) {
	sh := c.shard(k)
	var val any
	sh.mu.Lock()
	el, ok := sh.m[k]
	if ok {
		sh.order.MoveToBack(el)
		val = el.Value.(*entry).val
	}
	sh.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put inserts val for k, accounting cost bytes against the bound and
// evicting least-recently-used entries to make room. Entries costing more
// than a whole shard's budget are not cached. Re-putting an existing key
// refreshes its value, cost and recency.
func (c *Cache) Put(k Key, val any, cost int64) {
	sh := c.shard(k)
	if cost < 0 || cost > sh.max {
		return
	}
	var evicted uint64
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[Key]*list.Element)
		sh.order = list.New()
	}
	if el, ok := sh.m[k]; ok {
		en := el.Value.(*entry)
		sh.bytes += cost - en.cost
		en.val, en.cost = val, cost
		sh.order.MoveToBack(el)
	} else {
		sh.m[k] = sh.order.PushBack(&entry{key: k, val: val, cost: cost})
		sh.bytes += cost
	}
	for sh.bytes > sh.max {
		el := sh.order.Front()
		en := el.Value.(*entry)
		sh.order.Remove(el)
		delete(sh.m, en.key)
		sh.bytes -= en.cost
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Stats is a point-in-time view of the cache's counters and occupancy.
type Stats struct {
	// Hits and Misses count Get outcomes; Evictions counts entries pushed
	// out by the byte bound.
	Hits, Misses, Evictions uint64
	// Entries and Bytes are current occupancy; Capacity is the configured
	// byte bound.
	Entries  int
	Bytes    int64
	Capacity int64
}

// Stats returns the cache's current statistics.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Capacity:  c.capacity,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.m)
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}
