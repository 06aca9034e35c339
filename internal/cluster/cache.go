package cluster

import (
	"net/http"

	"eclipse/internal/flight"
	"eclipse/internal/serve"
	"eclipse/internal/slab"
)

// The gateway's L1 edge cache. The backends' content-addressed result
// caches (internal/serve) are the far tier — the communication
// memory of the paper's hierarchy — and this is the near tier next to
// the client-facing port, the analogue of the coprocessor shell caches:
// small, private, and absorbing the traffic the shared tier would
// otherwise see as repeated round-trips. A warm hit costs one short
// critical section and a memcpy instead of a proxied HTTP exchange; only
// misses and storms' leaders travel to the backends.
//
// The LRU, its slab-backed refcounted entries and their ownership
// discipline are internal/slab — one mechanism at two sizes, shared
// with the backends' cache; storm collapse is internal/flight.
//
// An entry needs no coherency action. The shell caches act only where a
// sync event can change the data (GetSpace invalidates, PutSpace
// flushes); the bytes under a content address never change, so a
// resident entry is served until the LRU evicts it, and the backend's
// Cache-Control: immutable says as much to every downstream cache. A
// codec change that alters output bumps the address itself (serve's
// canonMagic), never the bytes under an old one.

// l1EntryOverhead approximates an entry's bookkeeping bytes (struct,
// map header, header copy, LRU links) for budget accounting.
const l1EntryOverhead = 256

// l1Meta is the gateway's per-entry data.
type l1Meta struct {
	header  http.Header
	backend string // the backend whose response filled the entry
}

type l1Entry = slab.Entry[l1Meta]

// l1Cache is the L1: the shared LRU instantiated with the gateway's
// metadata, plus the flight table whose leaders fill it (fill.go).
// Counters live in the gateway's Metrics registry so /varz and /metrics
// render them alongside the proxy counters.
type l1Cache struct {
	*slab.LRU[l1Meta]
	flights flight.Table[doResult]
	met     *Metrics
}

// newL1Cache builds an L1 with the given total byte budget.
func newL1Cache(budgetBytes int64, met *Metrics) *l1Cache {
	return &l1Cache{LRU: slab.NewLRU[l1Meta](budgetBytes), met: met}
}

// put copies a 200 response into the L1, replacing any resident entry
// for the key. Oversized bodies were already diverted to the streaming
// path by the proxy's tee cap, but an L1 budget smaller than one entry
// still skips the fill rather than wiping the cache.
func (c *l1Cache) put(key serve.CacheKey, backend string, header http.Header, body []byte) bool {
	size := int64(len(body)) + l1EntryOverhead
	for k, vv := range header {
		for _, v := range vv {
			size += int64(len(k) + len(v))
		}
	}
	replaced, evicted, ok := c.Put(key, body, l1Meta{header: header, backend: backend}, size)
	if !ok {
		c.met.L1TooLarge.Add(1)
		return false
	}
	c.met.L1Fills.Add(1)
	if replaced != nil {
		c.Release(replaced)
	}
	c.met.L1Evictions.Add(uint64(len(evicted)))
	for _, d := range evicted {
		c.Release(d)
	}
	return true
}
