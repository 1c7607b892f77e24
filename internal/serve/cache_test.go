package serve

import (
	"fmt"
	"testing"
)

func TestRespCacheLRU(t *testing.T) {
	c := NewRespCache(2)
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
	c := NewRespCache(4)
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
	c := NewRespCache(-1)
	c.Put("k", []byte("v"))
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.Info(0).Entries != 0 {
		t.Errorf("entries = %d, want 0", c.Info(0).Entries)
	}
}

func TestRespCacheDefaultSize(t *testing.T) {
	c := NewRespCache(0)
	for i := 0; i < 4*DefaultCacheSize; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if c.Info(0).Entries != DefaultCacheSize {
		t.Errorf("entries = %d, want the default bound %d", c.Info(0).Entries, DefaultCacheSize)
	}
}
