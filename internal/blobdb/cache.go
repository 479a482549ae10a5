package blobdb

import (
	"container/list"
	"sync"
)

// blobCache is the size-bounded LRU of decompressed blobs in front of
// Table.Get (Options.BlobCacheBytes; off by default), keyed by table/key
// plus the row's generation, so a stale inflation never serves. An
// entry's slice is shared and immutable: put adopts the buffer Get just
// inflated, get returns it to every reader, and eviction, invalidate and
// a re-publish only drop the cache's reference. Staging reads executables
// through Table.Open, so no product code reaches this cache any more;
// cmd/bench's prod profile and get_hit rung do (ROADMAP 4b).
type blobCache struct {
	mu    sync.Mutex
	max   int64
	size  int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses int64
}

type cacheEntry struct {
	key  string
	gen  uint64
	blob []byte
}

func newBlobCache(max int64) *blobCache {
	return &blobCache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the entry's own slice if the generation matches.
func (c *blobCache) get(key string, gen uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*cacheEntry).gen != gen {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).blob, true
}

// put adopts blob (no copy: the caller gives up writing to it) under
// key/gen and evicts from the LRU tail until the cache fits its budget.
// Blobs larger than the whole budget are not cached.
func (c *blobCache) put(key string, gen uint64, blob []byte) {
	if int64(len(blob)) > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.size += int64(len(blob)) - int64(len(e.blob))
		e.gen, e.blob = gen, blob
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, gen: gen, blob: blob})
		c.size += int64(len(blob))
	}
	for c.size > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.size -= int64(len(e.blob))
	}
}

// invalidate drops key's entry (generation matching would catch stale
// reads anyway; this reclaims the memory eagerly).
func (c *blobCache) invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.items, key)
		c.size -= int64(len(e.blob))
	}
}

// stats snapshots the counters.
func (c *blobCache) stats() (hits, misses, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.size
}
