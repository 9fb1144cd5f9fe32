// Package lru is the one bounded least-recently-used memo of the system: the
// serving layer's artifact caches (pairwise LUTs, datasets) and the sampler's
// conversion-table cache are all built on Cache.
package lru

import (
	"container/list"
	"errors"
	"sync"
)

// Cache is a bounded LRU memo with request coalescing: the first caller of a
// key builds the value while later callers of the same key wait for it and
// count as hits — they share the value rather than rebuilding it. Values are
// immutable once published, so one value can back any number of concurrent
// users. Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu           sync.Mutex
	capacity     int
	entries      map[K]*list.Element
	order        *list.List // front = most recently used
	hits, misses uint64
}

type entry[K comparable, V any] struct {
	key   K
	ready chan struct{} // closed when val and err are published
	val   V
	err   error
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Entries int
	Hits    uint64
	Misses  uint64
}

// errBuildPanicked is what the waiters of a build that panicked receive.
var errBuildPanicked = errors.New("lru: the build of this entry panicked")

// New returns a cache bounded to capacity entries (at least one).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: max(capacity, 1), entries: make(map[K]*list.Element), order: list.New()}
}

// Get returns the value for key, calling build exactly once per resident
// entry. hit reports whether the entry already existed, possibly still being
// built by another goroutine. A build error (or panic) reaches every waiter
// and drops the entry, so a later call retries.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		e := el.Value.(*entry[K, V])
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	c.misses++
	e := &entry[K, V]{key: key, ready: make(chan struct{})}
	c.entries[key] = c.order.PushFront(e)
	for c.order.Len() > c.capacity {
		back := c.order.Back()
		delete(c.entries, back.Value.(*entry[K, V]).key)
		c.order.Remove(back)
	}
	c.mu.Unlock()

	built := false
	defer func() {
		if !built {
			e.err = errBuildPanicked
		}
		close(e.ready)
		if e.err != nil {
			c.mu.Lock()
			if el, ok := c.entries[key]; ok && el.Value == e {
				delete(c.entries, key)
				c.order.Remove(el)
			}
			c.mu.Unlock()
		}
	}()
	e.val, e.err = build()
	built = true
	return e.val, false, e.err
}

// Stats returns the current entry count and hit/miss counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: c.order.Len(), Hits: c.hits, Misses: c.misses}
}
