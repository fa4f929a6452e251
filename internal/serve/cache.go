package serve

import "container/list"

// flight is one in-progress computation of a key, shared by every caller
// that asked for the same key while it ran (single-flight dedup). The
// computing side fills u/err/batch/slab and closes done; waiters read
// only after done is closed, so no lock is needed on the result fields.
// The lifecycle fields (waiters, abandoned, settled, completed) are
// guarded by Engine.mu: a waiter whose context is canceled detaches by
// decrementing waiters, and the last detaching waiter abandons the
// flight, which the dispatcher then drops before its forward runs.
type flight struct {
	key   Key
	done  chan struct{}
	u     []float64 // canonical result; callers receive copies
	err   error
	batch int
	slab  bool

	waiters   int  // Solve calls attached to this flight
	abandoned bool // all waiters detached before the forward ran
	settled   bool // admission-queue slot released (exactly once)
	completed bool // finish ran: the result fields are set
}

// result converts the completed flight into a caller-owned Result. With
// own the caller gets the canonical slice itself, which is sound only when
// no cache entry and no other waiter shares it.
func (f *flight) result(dim int, own bool) (Result, error) {
	if f.err != nil {
		return Result{}, f.err
	}
	u := f.u
	if !own {
		u = cloneField(u)
	}
	return Result{
		U:     u,
		Res:   f.key.Res,
		Dim:   dim,
		Batch: f.batch,
		Slab:  f.slab,
	}, nil
}

// lruCache is a bounded map from Key to the canonical result slice,
// evicting least-recently-used entries. It is bounded both by entry
// count and by total payload bytes — megavoxel fields are ~16 MB each,
// so an entry-only bound would let a modest entry cap pin gigabytes.
// Callers hold Engine.mu.
type lruCache struct {
	cap     int
	byteCap int64
	bytes   int64
	order   *list.List // front = most recently used; values are *cacheEntry
	byKey   map[Key]*list.Element
}

type cacheEntry struct {
	key Key
	u   []float64
}

func newLRUCache(capacity int, byteCap int64) *lruCache {
	return &lruCache{cap: capacity, byteCap: byteCap, order: list.New(), byKey: map[Key]*list.Element{}}
}

func (c *lruCache) get(key Key) ([]float64, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).u, true
}

func (c *lruCache) put(key Key, u []float64) {
	size := int64(8 * len(u))
	if size > c.byteCap {
		return // a single entry larger than the budget is never cached
	}
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += size - int64(8*len(e.u))
		e.u = u
		c.order.MoveToFront(el)
	} else {
		c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, u: u})
		c.bytes += size
	}
	for c.order.Len() > c.cap || c.bytes > c.byteCap {
		last := c.order.Back()
		e := last.Value.(*cacheEntry)
		delete(c.byKey, e.key)
		c.bytes -= int64(8 * len(e.u))
		c.order.Remove(last)
	}
}

func (c *lruCache) len() int { return c.order.Len() }
