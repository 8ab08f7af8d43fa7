package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/obs"
)

// notCacheable reports whether a compute failure must be discarded
// instead of cached: cancellations are properties of the REQUEST, not
// of the market, so caching one would poison every later request for
// the same key.
func notCacheable(err error) bool {
	return errors.Is(err, game.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// resultCache is a bounded LRU of solved item responses with
// single-flight semantics: concurrent requests for the same item join
// one in-flight solve (no duplicate work — pinned by the serve race
// tests), and a repeat request returns the exact bytes of the first,
// byte-identity for free. Each entry keeps the solved value beside its
// marshaled bytes, so /v1/certify can certify the very value /v1/price
// or /v1/solve returned instead of solving the market again. Entries
// are pure functions of their key (endpoint + full item), so reuse can
// never change a response. Ordinary solver failures ARE cached — an
// infeasible market fails the same way every time — but canceled
// computes are withdrawn and joined waiters transparently retry under
// their own context.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*resultEntry
	lru     *list.List // front = most recent; values are string keys

	hits, misses, evictions int64
	hitsC, missesC, evictsC *obs.Counter
}

type resultEntry struct {
	done     chan struct{} // closed once val/raw/err are populated (or the entry is abandoned)
	val      any           // the solved value raw encodes; nil on error
	raw      []byte
	err      error
	canceled bool
	elem     *list.Element // LRU slot; nil while in flight
}

func newResultCache(capEntries int, ob *obs.Observer) *resultCache {
	if capEntries <= 0 {
		capEntries = core.DefaultDemandCacheCap
	}
	if ob == nil {
		ob = obs.Default()
	}
	return &resultCache{
		cap:     capEntries,
		entries: make(map[string]*resultEntry),
		lru:     list.New(),
		hitsC:   ob.Counter("serve.result_cache_hits_total"),
		missesC: ob.Counter("serve.result_cache_misses_total"),
		evictsC: ob.Counter("serve.result_cache_evictions_total"),
	}
}

// do returns the cached value and its CLI-identical encoding for key,
// computing the value via compute on first request. A joined in-flight
// compute counts as a hit. The lock is never held across compute, so a
// compute may itself call do on a different key.
func (c *resultCache) do(key string, compute func() (any, error)) (any, []byte, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
			c.hits++
			c.mu.Unlock()
			c.hitsC.Inc()
			<-e.done
			if e.canceled {
				// The request we joined was canceled and its entry
				// withdrawn; compute under our own context instead.
				continue
			}
			return e.val, e.raw, e.err
		}
		e := &resultEntry{done: make(chan struct{})}
		c.entries[key] = e
		c.misses++
		c.mu.Unlock()
		c.missesC.Inc()
		val, err := compute()
		var raw []byte
		if err == nil {
			raw, err = encodeResult(val)
		}
		if err == nil {
			e.val, e.raw = val, raw
		}
		e.err = err
		c.mu.Lock()
		if e.err != nil && notCacheable(e.err) {
			e.canceled = true
			delete(c.entries, key)
		} else {
			e.elem = c.lru.PushFront(key)
			for c.lru.Len() > c.cap {
				back := c.lru.Back()
				delete(c.entries, back.Value.(string))
				c.lru.Remove(back)
				c.evictions++
				c.evictsC.Inc()
			}
		}
		c.mu.Unlock()
		close(e.done)
		return e.val, e.raw, e.err
	}
}

// stats snapshots the cache counters.
func (c *resultCache) stats() (hits, misses, evictions int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, len(c.entries)
}
