package measurecache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestKeyOfDiscriminates pins that content, length and mode all participate
// in the key: every single-bit flip of a 4 KiB content, a length change and
// a mode change each give a distinct key, and equal input gives equal keys.
func TestKeyOfDiscriminates(t *testing.T) {
	content := make([]byte, 4<<10)
	rand.New(rand.NewSource(1)).Read(content)
	base := KeyOf(content, 0)
	if again := KeyOf(append([]byte(nil), content...), 0); again != base {
		t.Fatal("identical input produced different keys")
	}
	seen := map[Key]int{base: -1}
	for bit := 0; bit < len(content)*8; bit++ {
		content[bit/8] ^= 1 << (bit % 8)
		k := KeyOf(content, 0)
		content[bit/8] ^= 1 << (bit % 8)
		if prev, dup := seen[k]; dup {
			t.Fatalf("flipping bit %d gives the key of flip %d", bit, prev)
		}
		seen[k] = bit
	}
	if k := KeyOf(content[:len(content)-1], 0); k == base {
		t.Error("a shorter content produced an equal key")
	}
	if k := KeyOf(append(content, 0), 0); k == base {
		t.Error("a zero-extended content produced an equal key")
	}
	if k := KeyOf(content, 1); k == base {
		t.Error("distinct mode produced an equal key")
	}
}

// TestKeyOfSeededDiscriminates pins that the extra value (a sample's full
// file size) is part of the key: equal samples of files whose sizes differ
// never share a key, and the seeded key never equals the plain one.
func TestKeyOfSeededDiscriminates(t *testing.T) {
	sample := make([]byte, 8<<10)
	rand.New(rand.NewSource(2)).Read(sample)
	a := KeyOfSeeded(sample, 64<<10, 2)
	if b := KeyOfSeeded(append([]byte(nil), sample...), 64<<10, 2); a != b {
		t.Fatal("identical input produced different keys")
	}
	for _, size := range []uint64{0, 8 << 10, 64<<10 + 1, 1 << 40} {
		if b := KeyOfSeeded(sample, size, 2); a == b {
			t.Errorf("full sizes 64 KiB and %d produced equal keys", size)
		}
	}
	if b := KeyOf(sample, 2); a == b {
		t.Error("seeded and plain keys are equal")
	}
}

// TestIdleCacheHoldsNoShardHeap pins lazy shards: a new cache, and one that
// has only been read, allocates no shard map or list; a Put allocates its
// own shard only.
func TestIdleCacheHoldsNoShardHeap(t *testing.T) {
	c := New(1 << 20)
	k := KeyOf([]byte("content"), 0)
	c.Get(k)
	c.Stats()
	for i := range c.shards {
		if c.shards[i].m != nil || c.shards[i].order != nil {
			t.Fatalf("idle shard %d allocated", i)
		}
	}
	c.Put(k, "v", 1)
	for i := range c.shards {
		if got, want := c.shards[i].m != nil, &c.shards[i] == c.shard(k); got != want {
			t.Errorf("shard %d allocated = %v, want %v", i, got, want)
		}
	}
	if v, ok := c.Get(k); !ok || v.(string) != "v" {
		t.Fatalf("got %v %v", v, ok)
	}
}

func TestGetPut(t *testing.T) {
	c := New(1 << 20)
	k := KeyOf([]byte("content"), 0)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "v1", 100)
	v, ok := c.Get(k)
	if !ok || v.(string) != "v1" {
		t.Fatalf("got %v %v", v, ok)
	}
	c.Put(k, "v2", 200) // re-put refreshes value and cost
	if v, _ := c.Get(k); v.(string) != "v2" {
		t.Fatalf("re-put not visible: %v", v)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 200 {
		t.Fatalf("stats %+v", s)
	}
}

// TestEvictionByteBound fills one shard past its budget and checks the
// least-recently-used entries go first while the bound holds.
func TestEvictionByteBound(t *testing.T) {
	c := New(16 * 1000) // 1000 bytes per shard
	sh := &c.shards[0]

	// Build keys that all land in shard 0 so the per-shard bound is what we
	// exercise.
	var keys []Key
	for i := 0; len(keys) < 8; i++ {
		k := KeyOf([]byte(fmt.Sprintf("content-%d", i)), 0)
		if c.shard(k) == sh {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		c.Put(k, i, 300) // 4th insert exceeds 1000 → evictions
	}
	if sh.bytes > sh.max {
		t.Fatalf("shard over budget: %d > %d", sh.bytes, sh.max)
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	// Oldest keys evicted first; the most recent insert must survive.
	if _, ok := c.Get(keys[len(keys)-1]); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("oldest entry survived over-budget inserts")
	}
}

// TestRecencyProtectsHotEntries pins LRU (not FIFO) order: an old entry
// refreshed by Get outlives a younger untouched one.
func TestRecencyProtectsHotEntries(t *testing.T) {
	c := New(16 * 1000)
	sh := &c.shards[0]
	var keys []Key
	for i := 0; len(keys) < 4; i++ {
		k := KeyOf([]byte(fmt.Sprintf("hot-%d", i)), 0)
		if c.shard(k) == sh {
			keys = append(keys, k)
		}
	}
	c.Put(keys[0], 0, 400)
	c.Put(keys[1], 1, 400)
	c.Get(keys[0])         // refresh the older entry
	c.Put(keys[2], 2, 400) // over budget: should evict keys[1], not keys[0]
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestOversizedAndZeroCapacity(t *testing.T) {
	c := New(16 * 100)
	k := KeyOf([]byte("big"), 0)
	c.Put(k, "v", 101) // exceeds the 100-byte shard budget
	if _, ok := c.Get(k); ok {
		t.Fatal("oversized entry cached")
	}
	z := New(0)
	z.Put(k, "v", 1)
	if _, ok := z.Get(k); ok {
		t.Fatal("zero-capacity cache accepted an entry")
	}
}

// TestConcurrentAccess hammers the cache from many goroutines under -race.
func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := KeyOf([]byte(fmt.Sprintf("cc-%d", rng.Intn(200))), 0)
				if rng.Intn(2) == 0 {
					c.Put(k, i, int64(rng.Intn(512)))
				} else {
					c.Get(k)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes > s.Capacity {
		t.Fatalf("cache over capacity: %d > %d", s.Bytes, s.Capacity)
	}
}

// keySink keeps the benchmarked key computations live.
var keySink Key

func BenchmarkKeyOf(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			data := make([]byte, size)
			rand.New(rand.NewSource(3)).Read(data)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				keySink = KeyOf(data, 0)
			}
		})
	}
	// The sampled tier's key: an 8 KiB header sample with the full size
	// hashed ahead of it.
	b.Run("seeded/size=8192", func(b *testing.B) {
		data := make([]byte, 8<<10)
		rand.New(rand.NewSource(4)).Read(data)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keySink = KeyOfSeeded(data, 1<<20, 2)
		}
	})
}
