package serve

import (
	"fmt"
	"testing"
)

func TestRespCacheLRU(t *testing.T) {
	// One shard pins the strict global recency order this test asserts;
	// the sharded default only guarantees LRU order within a shard.
	c := newRespCacheShards(2, 1)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Fatalf("Get(a) = %q,%v", v, ok)
	}
	// "b" is now least-recently used; inserting "c" must evict it.
	c.Put("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order not maintained")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was evicted despite being recently used")
	}
	if c.Info(0).Entries != 2 {
		t.Errorf("entries = %d, want 2", c.Info(0).Entries)
	}
}

func TestRespCachePutExisting(t *testing.T) {
	c := newRespCacheShards(4, 0)
	c.Put("k", []byte("old"))
	c.Put("k", []byte("new"))
	if v, _ := c.Get("k"); string(v) != "new" {
		t.Errorf("Get = %q, want new", v)
	}
	if c.Info(0).Entries != 1 {
		t.Errorf("entries = %d, want 1", c.Info(0).Entries)
	}
}

func TestRespCacheDisabled(t *testing.T) {
	c := newRespCacheShards(-1, 0)
	c.Put("k", []byte("v"))
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.Info(0).Entries != 0 {
		t.Errorf("entries = %d, want 0", c.Info(0).Entries)
	}
}

func TestRespCacheDefaultSize(t *testing.T) {
	c := newRespCacheShards(0, 0)
	// Enough distinct keys to saturate every shard: once all segments are
	// full the aggregate occupancy is exactly the configured bound.
	for i := 0; i < 4*DefaultCacheSize; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if c.Info(0).Entries != DefaultCacheSize {
		t.Errorf("entries = %d, want the default bound %d", c.Info(0).Entries, DefaultCacheSize)
	}
	if len(c.shards) != DefaultCacheShards {
		t.Errorf("shards = %d, want %d", len(c.shards), DefaultCacheShards)
	}
}

func TestRespCacheShardClamp(t *testing.T) {
	// A tiny capacity must shrink the shard count so every shard holds at
	// least one entry, and the shard capacities must sum to the bound.
	c := newRespCacheShards(3, 0)
	if len(c.shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(c.shards))
	}
	total := 0
	for i := range c.shards {
		if c.shards[i].max < 1 {
			t.Errorf("shard %d max = %d, want ≥ 1", i, c.shards[i].max)
		}
		total += c.shards[i].max
	}
	if total != 3 {
		t.Errorf("shard capacities sum to %d, want 3", total)
	}
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if c.Info(0).Entries > 3 {
		t.Errorf("entries = %d, want ≤ 3", c.Info(0).Entries)
	}
}
