// Package worlds is the one keyed cache behind every place that keeps
// warmed-up simulated worlds around: the experiment layer's snapshot
// pool, leaksd's engine session pool and the cluster's fleet replicas.
//
// A Cache is a count-bounded LRU of lazily built values. Each key is
// built once even when callers race for it: the first caller builds,
// later callers wait for that build and share its outcome. A failed build
// is not kept, so the next Get retries it. Eviction only forgets: a value
// evicted while a caller still holds it keeps working for that caller,
// and nothing is closed or released on the cache's side.
package worlds

import (
	"container/list"
	"errors"
	"sync"
)

// errBuildPanicked is what callers waiting on a build see when the build
// panicked (the builder itself re-panics).
var errBuildPanicked = errors.New("worlds: build panicked")

// Cache maps keys to lazily built values, keeping at most cap of them and
// forgetting the least recently used beyond that.
type Cache[K comparable, V any] struct {
	mu           sync.Mutex
	cap          int
	lru          list.List // of *entry[K, V], most recently used first
	byKey        map[K]*list.Element
	hits, misses uint64
}

type entry[K comparable, V any] struct {
	key  K
	done chan struct{} // closed once v and err are final
	v    V
	err  error
}

// New returns an empty cache holding at most cap values (cap must be
// positive).
func New[K comparable, V any](cap int) *Cache[K, V] {
	if cap <= 0 {
		panic("worlds: cache capacity must be positive")
	}
	return &Cache[K, V]{cap: cap, byKey: make(map[K]*list.Element)}
}

// Get returns the value for key, calling build to make it on a miss.
// Concurrent Gets of a key that is still being built wait for that build
// and return its outcome; they count as hits. An error from build is
// returned to the builder and its waiters and is not cached.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		e := el.Value.(*entry[K, V])
		<-e.done
		return e.v, e.err
	}
	c.misses++
	e := &entry[K, V]{key: key, done: make(chan struct{}), err: errBuildPanicked}
	el := c.lru.PushFront(e)
	c.byKey[key] = el
	for c.lru.Len() > c.cap {
		c.forgetLocked(c.lru.Back())
	}
	c.mu.Unlock()

	defer func() {
		if e.err != nil {
			c.mu.Lock()
			if c.byKey[key] == el {
				c.forgetLocked(el)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.v, e.err = build()
	return e.v, e.err
}

// forgetLocked drops el from the cache. Callers hold c.mu.
func (c *Cache[K, V]) forgetLocked(el *list.Element) {
	c.lru.Remove(el)
	delete(c.byKey, el.Value.(*entry[K, V]).key)
}

// Len reports how many keys the cache holds, builds in flight included.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns how many Gets found their key (hits) and how many built
// it (misses).
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Values returns every built value the cache holds, most recently used
// first. Builds still in flight are skipped; a failed build leaves the
// cache before its waiters are released, so it is never seen here.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		select {
		case <-e.done:
			out = append(out, e.v)
		default:
		}
	}
	return out
}
