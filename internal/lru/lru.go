// Package lru is the in-memory cache every layer shares: the experiment
// suite's run memo, its trace and warm-state caches and slipd's result
// store. A Cache maps string keys to completed values, keeps them in
// least-recently-used order under a size budget, and fills missing keys
// with a context-aware singleflight: concurrent Gets for one key run one
// fill, and a fill that fails or is cancelled leaves no entry behind, so
// the next live caller simply runs a fresh one.
package lru

import (
	"container/list"
	"context"
	"sort"
	"sync"
)

// Cache is a string-keyed LRU of completed values under a size budget.
// All methods are safe for concurrent use. Values are handed out as they
// are stored: a Cache of pointers shares the pointees with its callers.
type Cache[V any] struct {
	budget int64
	size   func(V) int64

	mu      sync.Mutex
	items   map[string]*list.Element // retained entries; Value is *item[V]
	order   list.List                // front = most recently used
	flights map[string]*flight[V]    // fills in progress
	stats   Stats
}

type item[V any] struct {
	key  string
	val  V
	size int64
}

// flight is one fill in progress; val and err are written before done
// closes and never after.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Stats is a point-in-time snapshot of a cache's activity.
type Stats struct {
	Hits      uint64 // lookups served by a retained or in-flight value
	Misses    uint64 // lookups that found neither; each missing Get runs one fill
	Evictions uint64 // entries dropped to keep within the budget
	Bytes     int64  // total size of the retained entries
	Entries   int    // entries retained
}

// New builds a cache whose retained values' sizes sum to at most budget;
// budget <= 0 means unbounded. size reports a value's size in the budget's
// unit; nil counts every value as 1, making budget an entry count.
func New[V any](budget int64, size func(V) int64) *Cache[V] {
	if size == nil {
		size = func(V) int64 { return 1 }
	}
	return &Cache[V]{
		budget:  budget,
		size:    size,
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight[V]),
	}
}

// Budget returns the size budget (<= 0: unbounded).
func (c *Cache[V]) Budget() int64 { return c.budget }

// Get returns the value for key, running fill on a miss. Concurrent Gets
// for one key share a single fill; callers served by a retained or
// in-flight value count as hits, each fill counts as a miss. A caller
// whose ctx ends while it waits returns ctx.Err() and leaves the fill
// running for the others. When fill fails, its error goes to the caller
// that ran it, no entry is kept, and waiters retry. A value larger than
// the whole budget is returned but not retained. fill must be
// deterministic for the key: the value returned may come from any
// caller's fill.
func (c *Cache[V]) Get(ctx context.Context, key string, fill func(context.Context) (V, error)) (V, error) {
	var zero V
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.stats.Hits++
			c.order.MoveToFront(el)
			v := el.Value.(*item[V]).val
			c.mu.Unlock()
			return v, nil
		}
		if f, ok := c.flights[key]; ok {
			c.stats.Hits++
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return zero, ctx.Err()
			}
			if f.err == nil {
				return f.val, nil
			}
			continue // the fill failed: run or join a fresh one
		}
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return zero, err
		}
		f := &flight[V]{done: make(chan struct{})}
		c.flights[key] = f
		c.stats.Misses++
		c.mu.Unlock()

		f.val, f.err = fill(ctx) // outside the lock: distinct keys fill concurrently
		var n int64
		if f.err == nil {
			n = c.size(f.val)
		}

		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insert(key, f.val, n)
		}
		c.mu.Unlock()
		close(f.done)
		return f.val, f.err
	}
}

// Peek returns the retained value for key, promoting it to most recent.
// It never waits for a fill in progress and counts as a hit or a miss.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*item[V]).val, true
}

// Put stores (or replaces) the value for key as the most recent entry.
func (c *Cache[V]) Put(key string, v V) {
	n := c.size(v)
	c.mu.Lock()
	c.insert(key, v, n)
	c.mu.Unlock()
}

// Remove drops the retained value for key, if there is one, and reports
// whether there was. A fill in progress for key is left alone. A removal
// is not an eviction: it counts in no statistic but the retained ones.
func (c *Cache[V]) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.remove(el)
	}
	return ok
}

// insert retains v, of size n, under key and evicts from the back until
// the budget holds. Callers hold c.mu.
func (c *Cache[V]) insert(key string, v V, n int64) {
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
	if c.budget > 0 && n > c.budget {
		return // could never be retained
	}
	c.items[key] = c.order.PushFront(&item[V]{key: key, val: v, size: n})
	c.stats.Bytes += n
	for c.budget > 0 && c.stats.Bytes > c.budget {
		c.remove(c.order.Back())
		c.stats.Evictions++
	}
}

// remove drops one retained entry. Callers hold c.mu.
func (c *Cache[V]) remove(el *list.Element) {
	it := c.order.Remove(el).(*item[V])
	delete(c.items, it.key)
	c.stats.Bytes -= it.size
}

// Stats snapshots the counters; a nil cache reports zeros.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.items)
	return st
}

// Keys returns the retained keys, sorted. Fills in progress are not
// included.
func (c *Cache[V]) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.items))
	for k := range c.items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
