package core

import (
	"sync"
	"sync/atomic"

	"cryptodrop/internal/magic"
)

// The engine's mutable state is split into independently locked shards so
// the detection hot path never funnels through one engine-wide mutex:
//
//   - procTable shards the per-process scoreboard by scoring-group PID, so
//     PostOp for distinct processes proceeds concurrently;
//   - fileTable shards the previous-version file-state cache (and the
//     file-creator map) by stable file ID.
//
// Lock ordering: a proc-shard lock may be held while taking a file-shard
// lock, never the reverse, and no two file-shard locks are held at once.

// procShardCount is the number of scoreboard shards (power of two).
const procShardCount = 32

type procShard struct {
	mu sync.Mutex
	m  map[int]*procState
	// lockSamples paces telemetry's lock-wait sampling; touched atomically
	// (never under mu) and only when telemetry is enabled.
	lockSamples atomic.Uint64
}

// procTable is the sharded per-process scoreboard.
type procTable struct {
	shards [procShardCount]procShard
}

func (t *procTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[int]*procState)
	}
}

// shard returns the shard owning pid (already resolved to its scoring
// group).
func (t *procTable) shard(pid int) *procShard {
	return &t.shards[uint(pid)&(procShardCount-1)]
}

// all appends every scoreboard entry to out, visiting shards in order. Each
// shard is locked only while it is copied.
func (t *procTable) all() []*procState {
	var out []*procState
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, ps := range sh.m {
			out = append(out, ps)
		}
		sh.mu.Unlock()
	}
	return out
}

// fileShardCount is the number of file-state shards (power of two).
const fileShardCount = 64

type fileShard struct {
	mu sync.Mutex
	// states caches the measured previous-version state of protected
	// files.
	states map[uint64]*fileState
	// creators records which process created each file.
	creators map[uint64]int
}

// fileTable is the sharded previous-version file-state cache.
type fileTable struct {
	shards [fileShardCount]fileShard
}

func (t *fileTable) init() {
	for i := range t.shards {
		t.shards[i].states = make(map[uint64]*fileState)
		t.shards[i].creators = make(map[uint64]int)
	}
}

func (t *fileTable) shard(id uint64) *fileShard {
	return &t.shards[id&(fileShardCount-1)]
}

// has reports whether a state is cached for id.
func (t *fileTable) has(id uint64) bool {
	sh := t.shard(id)
	sh.mu.Lock()
	_, ok := sh.states[id]
	sh.mu.Unlock()
	return ok
}

// entry returns the cached state for id, or nil.
func (t *fileTable) entry(id uint64) *fileState {
	sh := t.shard(id)
	sh.mu.Lock()
	st := sh.states[id]
	sh.mu.Unlock()
	return st
}

// store replaces the cached state for id.
func (t *fileTable) store(id uint64, st *fileState) {
	sh := t.shard(id)
	sh.mu.Lock()
	sh.states[id] = st
	sh.mu.Unlock()
}

// storeIfMissing caches a state for id unless one is already present
// (snapshot semantics: first version wins until evaluated).
func (t *fileTable) storeIfMissing(id uint64, st *fileState) {
	sh := t.shard(id)
	sh.mu.Lock()
	if _, ok := sh.states[id]; !ok {
		sh.states[id] = st
	}
	sh.mu.Unlock()
}

// drop removes the cached state for id.
func (t *fileTable) drop(id uint64) {
	sh := t.shard(id)
	sh.mu.Lock()
	delete(sh.states, id)
	sh.mu.Unlock()
}

// setCreator records pid as the creator of file id.
func (t *fileTable) setCreator(id uint64, pid int) {
	sh := t.shard(id)
	sh.mu.Lock()
	sh.creators[id] = pid
	sh.mu.Unlock()
}

// creator returns the recorded creator of file id (0 if unknown).
func (t *fileTable) creator(id uint64) int {
	sh := t.shard(id)
	sh.mu.Lock()
	pid := sh.creators[id]
	sh.mu.Unlock()
	return pid
}

// dropCreator forgets the creator of file id.
func (t *fileTable) dropCreator(id uint64) {
	sh := t.shard(id)
	sh.mu.Lock()
	delete(sh.creators, id)
	sh.mu.Unlock()
}

// sniffKey identifies a sniffed read payload: the file it came from, the
// payload length and a hash of the leading bytes. Keying on the file ID
// keeps the cache exact across distinct files that share a prefix (two
// OOXML containers can agree on far more than 16 leading bytes).
type sniffKey struct {
	id uint64
	n  int
	h  uint64
}

// sniffCacheCap bounds the per-process sniff cache.
const sniffCacheCap = 64

// sniffCache is a small per-process LRU mapping a read payload's prefix to
// its identified type, so a process re-reading the same file does not pay
// for magic.Identify on every offset-0 read. It is only ever touched under
// the owning proc-shard lock.
type sniffCache struct {
	m     map[sniffKey]magic.Type
	order []sniffKey // least recently used first
}

// prefixHash is FNV-1a over the first 16 bytes of data.
func prefixHash(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	n := len(data)
	if n > 16 {
		n = 16
	}
	h := uint64(offset64)
	for _, b := range data[:n] {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

func (c *sniffCache) key(id uint64, data []byte) sniffKey {
	return sniffKey{id: id, n: len(data), h: prefixHash(data)}
}

// get returns the cached type for the payload, refreshing its recency.
func (c *sniffCache) get(k sniffKey) (magic.Type, bool) {
	t, ok := c.m[k]
	if !ok {
		return magic.Type{}, false
	}
	for i, ek := range c.order {
		if ek == k {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = k
			break
		}
	}
	return t, true
}

// put caches the identified type, evicting the least recently used entry
// when full.
func (c *sniffCache) put(k sniffKey, t magic.Type) {
	if c.m == nil {
		c.m = make(map[sniffKey]magic.Type, sniffCacheCap)
	}
	if _, ok := c.m[k]; !ok && len(c.order) >= sniffCacheCap {
		delete(c.m, c.order[0])
		copy(c.order, c.order[1:])
		c.order = c.order[:len(c.order)-1]
	}
	if _, ok := c.m[k]; !ok {
		c.order = append(c.order, k)
	}
	c.m[k] = t
}
