package cluster

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"eclipse/internal/flight"
	"eclipse/internal/serve"
	"eclipse/internal/slab"
)

// The gateway's L1 edge cache. The backends' content-addressed result
// caches (internal/serve, PR 6) are the far tier — the communication
// memory of the paper's hierarchy — and this is the near tier next to
// the client-facing port, the analogue of the coprocessor shell caches:
// small, private, and absorbing the traffic the shared tier would
// otherwise see as repeated round-trips. A warm hit costs one short
// critical section and a memcpy instead of a proxied HTTP exchange; only misses,
// storms' leaders, and revalidations travel to the backends.
//
// The LRU, its slab-backed refcounted entries and their ownership
// discipline are internal/slab — one mechanism at two sizes, shared
// with the backends' cache; storm collapse is internal/flight. What
// lives here is the gateway's own: freshness and revalidation.
//
// Freshness is the coherency protocol of the hierarchy: an entry is
// served without any backend traffic while inside its freshness window
// (the smaller of the -l1-ttl knob and the backend's Cache-Control
// max-age). Past the window the entry is not dropped — it is
// revalidated with If-None-Match against the owning backend, and a 304
// refreshes residency without re-transferring the body. Because the
// ETag is the content address, a live backend always answers 304; the
// revalidation is a liveness/coherency check, not a data transfer.

// l1EntryOverhead approximates an entry's bookkeeping bytes (struct,
// map header, header copy, LRU links) for budget accounting.
const l1EntryOverhead = 256

// l1Meta is the gateway's per-entry data. The freshness stamps are
// atomics because a 304 refresh touches them without the cache lock —
// which is also why entries carry it by pointer.
type l1Meta struct {
	header  http.Header
	backend string       // the backend whose response filled the entry
	filled  atomic.Int64 // UnixNano of the fill or last 304 refresh
	expires atomic.Int64 // UnixNano the freshness window closes
}

type l1Entry = slab.Entry[*l1Meta]

// fresh reports whether the entry may be served without revalidation.
func (m *l1Meta) fresh(now time.Time) bool { return now.UnixNano() < m.expires.Load() }

// ageSeconds is the Age response header value: seconds of residency
// since the fill or the last successful revalidation.
func (m *l1Meta) ageSeconds(now time.Time) int {
	return max(0, int(now.Sub(time.Unix(0, m.filled.Load()))/time.Second))
}

// touch (re)starts the freshness window: at fill time, and after a 304
// — the backend confirmed the bytes, so residency is refreshed without
// a body transfer. Atomics only — the entry may even have been evicted
// concurrently, in which case the refresh is a harmless no-op on a
// dying entry.
func (m *l1Meta) touch(ttl time.Duration) {
	now := time.Now()
	m.filled.Store(now.UnixNano())
	m.expires.Store(now.Add(ttl).UnixNano())
}

// l1Cache is the L1: the shared LRU instantiated with the gateway's
// metadata, plus the flight table whose leaders fill it (fill.go). A
// lookup (Get) returns fresh and stale entries alike — freshness is the
// caller's decision, a stale entry is a revalidation candidate, not a
// miss. Counters live in the gateway's Metrics registry so /varz and
// /metrics render them alongside the proxy counters.
type l1Cache struct {
	*slab.LRU[*l1Meta]
	flights flight.Table[doResult]
	met     *Metrics
}

// newL1Cache builds an L1 with the given total byte budget.
func newL1Cache(budgetBytes int64, met *Metrics) *l1Cache {
	return &l1Cache{LRU: slab.NewLRU[*l1Meta](budgetBytes), met: met}
}

// put copies a 200 response into the L1, replacing any resident entry
// for the key (a revalidation that came back 200 carries fresher bytes
// than the stale resident). Oversized bodies were already diverted to
// the streaming path by the proxy's tee cap, but an L1 budget smaller
// than one entry still skips the fill rather than wiping the cache.
func (c *l1Cache) put(key serve.CacheKey, backend string, header http.Header, body []byte, ttl time.Duration) bool {
	size := int64(len(body)) + l1EntryOverhead
	for k, vv := range header {
		for _, v := range vv {
			size += int64(len(k) + len(v))
		}
	}
	meta := &l1Meta{header: header, backend: backend}
	meta.touch(ttl)
	replaced, evicted, ok := c.Put(key, body, meta, size)
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

// freshnessTTL derives an entry's freshness window: the gateway's
// -l1-ttl default, tightened by the backend's Cache-Control max-age
// when one is present. The backend advertises how long its
// content-addressed bytes may be served without a coherency check; the
// gateway never extends that, only shortens it.
func freshnessTTL(h http.Header, def time.Duration) time.Duration {
	for _, part := range strings.Split(h.Get("Cache-Control"), ",") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(part), "max-age="); ok {
			if sec, err := strconv.Atoi(v); err == nil && sec >= 0 {
				if d := time.Duration(sec) * time.Second; d < def {
					return d
				}
			}
		}
	}
	return def
}
