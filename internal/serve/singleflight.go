package serve

import (
	"context"
	"errors"

	"eclipse/internal/flight"
)

// Singleflight collapse: concurrent requests for the same cache key
// cost one decode. The first requester becomes the flight's leader and
// submits the real job through admission control; followers park on the
// leader's completion channel without consuming scheduler slices or
// admission space. The interaction with admission is deliberate — a
// 1000-request storm on one key admits exactly one job, so the tenant
// queues (the GetSpace analogue) see popular content as a single unit
// of work.
//
// The table and its lead/follow/promote protocol are internal/flight.
// Here a leader abdicates when its failure is specific to its own
// request — its client disconnected, its deadline expired, its tenant's
// queue was full, the server is draining — and publishes deterministic
// failures (a malformed bitstream produces the same error for every
// requester) to all followers. A leader that finds the key already
// cached ends its flight Resident, so followers re-read the cache, each
// under its own entry reference, instead of sharing an unrefcounted
// body.

// leaderSpecificErr classifies failures that condemn only the leader's
// own request, not the key: follower promotion is the right response.
func leaderSpecificErr(err error) bool {
	var qf *QueueFullError
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrDraining) ||
		errors.As(err, &qf)
}

// CacheOutcome classifies how a request was served, for the X-Cache
// header and the hit/miss latency histograms.
type CacheOutcome int

const (
	CacheBypass      CacheOutcome = iota // caching disabled for the tenant
	CacheHit                             // served from a resident entry
	CacheMiss                            // led the decode (possibly after promotion)
	CacheCollapsed                       // parked on another request's flight
	CacheRevalidated                     // If-None-Match matched: 304
)

// String names the outcome for the X-Cache response header.
func (o CacheOutcome) String() string {
	switch o {
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	case CacheCollapsed:
		return "collapsed"
	case CacheRevalidated:
		return "revalidated"
	}
	return "bypass"
}

// Fetch serves key from the cache or produces it via run, collapsing
// concurrent identical requests into one execution. release must be
// called after the returned body has been consumed (it pins the entry's
// slab on the hit path; elsewhere it is a no-op). run executes on the
// calling goroutine, at most once per Fetch.
func (c *Cache) Fetch(ctx context.Context, key CacheKey, tenant string, run func() (Result, error)) (Result, func(), CacheOutcome, error) {
	noop := func() {}
	ts := c.tstats(tenant)
	var e *cacheEntry
	countMiss := true // one miss per request, however often it looks
	lookup := func() (ok bool) {
		e, ok = c.lookup(key, ts, countMiss)
		countMiss = false
		return ok
	}
	got, role, err := c.flights.Do(ctx, key, lookup, func() (fetched, flight.Verdict) {
		res, err := run()
		if err != nil && leaderSpecificErr(err) {
			return fetched{err: err}, flight.Abdicate
		}
		if err == nil {
			c.put(key, ts, res)
		}
		return fetched{res, err}, flight.Publish
	})
	switch role {
	case flight.Hit, flight.HitAfterWait:
		return Result{Body: e.Body, Meta: e.Meta.meta}, func() { c.lru.Release(e) }, CacheHit, nil
	case flight.Led:
		return got.res, noop, CacheMiss, got.err
	}
	if err == nil {
		err = got.err
	}
	if err != nil {
		return Result{}, noop, CacheCollapsed, err
	}
	c.collapsed.Add(1)
	ts.collapsed.Add(1)
	return got.res, noop, CacheCollapsed, nil
}
