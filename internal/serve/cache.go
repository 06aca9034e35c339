package serve

import (
	"sort"
	"sync"
	"sync/atomic"

	"eclipse/internal/flight"
	"eclipse/internal/metrics"
	"eclipse/internal/slab"
)

// The result cache is the serving layer's answer to the popular-content
// shape: thousands of identical requests should cost one decode plus N
// byte-copies, not N decodes. It is the same locality argument the
// paper makes for the coprocessor shells — exploit reuse at the layer
// that can see it — lifted one level, from stream windows to whole
// responses.
//
// The LRU, its slab-backed refcounted entries and their ownership
// discipline are internal/slab, shared with the gateway's L1; storm
// collapse is internal/flight. What lives here is this tier's own:
// tenant attribution, the hit/miss histograms, the /varz snapshot and
// Fetch's follower loop (singleflight.go).

// entryOverhead approximates an entry's bookkeeping bytes (struct, map
// header, LRU links) for budget accounting.
const entryOverhead = 160

// cacheMeta is this tier's per-entry data: the response headers and the
// counter block of the tenant whose leader filled the entry.
type cacheMeta struct {
	meta   map[string]string
	filler *tenantCacheStats
}

type cacheEntry = slab.Entry[cacheMeta]

// tenantCacheStats are one tenant's cache counters. Hits/misses/
// collapses are attributed to the requesting tenant; resident bytes and
// evictions to the tenant whose leader filled the entry.
type tenantCacheStats struct {
	hits, misses, collapsed, evictions, notModified atomic.Uint64
	resident                                        atomic.Int64
}

// fetched is what a flight's leader publishes to its followers.
type fetched struct {
	res Result
	err error
}

// Cache is the content-addressed result cache with its singleflight
// table. Concurrency: a Fetch resolves its tenant's counter block once
// (the tenant-table mutex, held for a map read) and a hit then takes
// the LRU's mutex once; all counters are atomics; the flight table
// has its own mutex and is touched only on misses.
type Cache struct {
	lru     *slab.LRU[cacheMeta]
	flights flight.Table[fetched]

	hits        atomic.Uint64
	misses      atomic.Uint64
	collapsed   atomic.Uint64
	fills       atomic.Uint64
	evictions   atomic.Uint64
	promotions  atomic.Uint64
	notModified atomic.Uint64
	tooLarge    atomic.Uint64

	hitLat  metrics.Hist
	missLat metrics.Hist

	tmu     sync.Mutex
	tenants map[string]*tenantCacheStats
}

// NewCache builds a cache with the given total byte budget.
func NewCache(budgetBytes int64) *Cache {
	return &Cache{lru: slab.NewLRU[cacheMeta](budgetBytes), tenants: map[string]*tenantCacheStats{}}
}

// tstats returns (creating if needed) a tenant's counter block.
func (c *Cache) tstats(name string) *tenantCacheStats {
	c.tmu.Lock()
	s := c.tenants[name]
	if s == nil {
		s = &tenantCacheStats{}
		c.tenants[name] = s
	}
	c.tmu.Unlock()
	return s
}

// lookup finds a live entry and acquires a reader reference (the caller
// must c.lru.Release it), counting the hit or miss against the
// requesting tenant ts. countMiss selects whether an absent key counts
// as a miss (the leader's post-join recheck passes false to keep the
// counters one-per-request).
func (c *Cache) lookup(key CacheKey, ts *tenantCacheStats, countMiss bool) (*cacheEntry, bool) {
	e, ok := c.lru.Get(key)
	if !ok {
		if countMiss {
			c.misses.Add(1)
			ts.misses.Add(1)
		}
		return nil, false
	}
	c.hits.Add(1)
	ts.hits.Add(1)
	return e, true
}

// put copies a successful result into the cache on behalf of the
// filling tenant ts. Results larger than the whole budget are skipped
// rather than wiping the cache.
func (c *Cache) put(key CacheKey, ts *tenantCacheStats, res Result) {
	size := int64(len(res.Body)) + entryOverhead
	meta := make(map[string]string, len(res.Meta))
	for k, v := range res.Meta {
		size += int64(len(k) + len(v))
		meta[k] = v
	}
	replaced, evicted, ok := c.lru.Put(key, res.Body, cacheMeta{meta: meta, filler: ts}, size)
	if !ok {
		c.tooLarge.Add(1)
		return
	}
	c.fills.Add(1)
	ts.resident.Add(size)
	// A same-key entry replaced by a racing leader's fill (possible only
	// across flight generations) gives its bytes back but is not an
	// eviction.
	if replaced != nil {
		replaced.Meta.filler.resident.Add(-replaced.Charge)
		c.lru.Release(replaced)
	}
	for _, d := range evicted {
		c.evictions.Add(1)
		d.Meta.filler.evictions.Add(1)
		d.Meta.filler.resident.Add(-d.Charge)
		c.lru.Release(d)
	}
}

// recordNotModified counts an If-None-Match revalidation answered 304.
// 304s are tracked separately from hits so the per-tenant hit counters
// always sum to the global one.
func (c *Cache) recordNotModified(tenant string) {
	c.notModified.Add(1)
	c.tstats(tenant).notModified.Add(1)
}

// CacheTenantSnapshot is one tenant's cache row in /varz and /metrics.
type CacheTenantSnapshot struct {
	Name          string `json:"name"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Collapsed     uint64 `json:"collapsed"`
	NotModified   uint64 `json:"not_modified"`
	Evictions     uint64 `json:"evictions"`
	ResidentBytes int64  `json:"resident_bytes"`
}

// CacheSnapshot is the cache section of the /varz document.
type CacheSnapshot struct {
	BudgetBytes   int64                 `json:"budget_bytes"`
	ResidentBytes int64                 `json:"resident_bytes"`
	Entries       int                   `json:"entries"`
	Hits          uint64                `json:"hits_total"`
	Misses        uint64                `json:"misses_total"`
	Collapsed     uint64                `json:"collapsed_total"`
	NotModified   uint64                `json:"not_modified_total"`
	Fills         uint64                `json:"fills_total"`
	Evictions     uint64                `json:"evictions_total"`
	Promotions    uint64                `json:"promotions_total"`
	TooLarge      uint64                `json:"too_large_total"`
	HitP50Ms      float64               `json:"hit_p50_ms"`
	HitP99Ms      float64               `json:"hit_p99_ms"`
	MissP50Ms     float64               `json:"miss_p50_ms"`
	MissP99Ms     float64               `json:"miss_p99_ms"`
	Tenants       []CacheTenantSnapshot `json:"tenants"`
}

// Snapshot assembles a consistent-enough view for /varz, /metrics, and
// the drain report (counters are read individually, like HistSnapshot).
func (c *Cache) Snapshot() CacheSnapshot {
	resident, entries := c.lru.Resident()
	s := CacheSnapshot{
		BudgetBytes:   c.lru.Budget(),
		ResidentBytes: resident,
		Entries:       entries,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Collapsed:     c.collapsed.Load(),
		NotModified:   c.notModified.Load(),
		Fills:         c.fills.Load(),
		Evictions:     c.evictions.Load(),
		Promotions:    c.promotions.Load(),
		TooLarge:      c.tooLarge.Load(),
		HitP50Ms:      metrics.Ms(c.hitLat.Quantile(0.50)),
		HitP99Ms:      metrics.Ms(c.hitLat.Quantile(0.99)),
		MissP50Ms:     metrics.Ms(c.missLat.Quantile(0.50)),
		MissP99Ms:     metrics.Ms(c.missLat.Quantile(0.99)),
	}
	c.tmu.Lock()
	for name, ts := range c.tenants {
		s.Tenants = append(s.Tenants, CacheTenantSnapshot{
			Name:          name,
			Hits:          ts.hits.Load(),
			Misses:        ts.misses.Load(),
			Collapsed:     ts.collapsed.Load(),
			NotModified:   ts.notModified.Load(),
			Evictions:     ts.evictions.Load(),
			ResidentBytes: ts.resident.Load(),
		})
	}
	c.tmu.Unlock()
	sort.Slice(s.Tenants, func(i, j int) bool { return s.Tenants[i].Name < s.Tenants[j].Name })
	return s
}
