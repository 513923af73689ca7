package bench

import "sync"

// cache is a concurrency-safe memo table with singleflight semantics:
// the first goroutine to ask for a key computes it while later askers
// block until the value lands, so a parallel sweep never duplicates an
// expensive run (or graph build, or sequential layout).
type cache[K comparable, V any] struct {
	mu       sync.Mutex
	vals     map[K]V
	inflight map[K]chan struct{}
}

func (c *cache[K, V]) get(k K, compute func() V) V {
	c.mu.Lock()
	if c.vals == nil {
		c.vals = make(map[K]V)
		c.inflight = make(map[K]chan struct{})
	}
	for {
		if v, ok := c.vals[k]; ok {
			c.mu.Unlock()
			return v
		}
		ch, ok := c.inflight[k]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
	}
	ch := make(chan struct{})
	c.inflight[k] = ch
	c.mu.Unlock()
	v := compute()
	c.mu.Lock()
	c.vals[k] = v
	delete(c.inflight, k)
	close(ch)
	c.mu.Unlock()
	return v
}

// lookup returns the value cached under k, without computing or
// waiting for one.
func (c *cache[K, V]) lookup(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vals[k]
	return v, ok
}
