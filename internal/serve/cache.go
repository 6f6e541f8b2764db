package serve

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"robustperiod/internal/faults"
)

// cacheKey identifies one (series, options) detection request. Two
// independent FNV hashes (FNV-1a and FNV-1) plus the series length
// give an effective ~128-bit fingerprint, so accidental collisions
// between distinct requests are out of reach without storing the
// series itself in the cache.
type cacheKey struct {
	h1, h2 uint64
	n      int
}

// requestKey fingerprints a detection request. optsTag must be a
// canonical encoding of the options (the handler uses the normalized
// JSON of the request's options object).
func requestKey(series []float64, optsTag []byte) cacheKey {
	a := fnv.New64a()
	b := fnv.New64()
	var buf [8]byte
	for _, v := range series {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		a.Write(buf[:])
		b.Write(buf[:])
	}
	// Separator avoids ambiguity between series bytes and options tag.
	a.Write([]byte{0xff})
	b.Write([]byte{0xff})
	a.Write(optsTag)
	b.Write(optsTag)
	return cacheKey{h1: a.Sum64(), h2: b.Sum64(), n: len(series)}
}

// resultCache is a strict-LRU memo of detection answers, safe for
// concurrent use. A nil *resultCache is a valid always-miss cache.
type resultCache struct {
	mu          sync.Mutex
	cap         int
	ll          *list.List // front = most recently used
	items       map[cacheKey]*list.Element
	corruptions atomic.Int64 // entries dropped by the read-side integrity check
}

type cacheEntry struct {
	key cacheKey
	ans *answer
}

// newResultCache returns a cache holding at most capacity answers;
// capacity <= 0 disables caching (returns nil).
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[cacheKey]*list.Element, capacity),
	}
}

// get returns the cached answer for k, refreshing its recency.
func (c *resultCache) get(k cacheKey) (*answer, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	// Fault point "serve/cache": a corrupted entry detected on read.
	// The self-healing response is to discard it and recompute — a
	// cache must never be able to serve garbage or take the service
	// down, only to miss.
	if err := faults.Check(faults.PointServeCache); err != nil {
		c.ll.Remove(el)
		delete(c.items, k)
		c.corruptions.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).ans, true
}

// add inserts (or refreshes) an answer, evicting the least recently
// used entry when over capacity.
func (c *resultCache) add(k cacheKey, a *answer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).ans = a
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: k, ans: a})
	c.items[k] = el
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// corrupted reports the number of entries dropped by the read-side
// integrity check. Works on a nil (disabled) cache.
func (c *resultCache) corrupted() int64 {
	if c == nil {
		return 0
	}
	return c.corruptions.Load()
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
