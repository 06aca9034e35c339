package serve

import (
	"context"
	"errors"
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
// The table and its abdication/promotion protocol are internal/flight.
// Here a leader abdicates when its failure is specific to its own
// request — its client disconnected, its deadline expired, its tenant's
// queue was full, the server is draining — and broadcasts deterministic
// failures (a malformed bitstream produces the same error for every
// requester) to all followers.

// errFlightRetry is the internal completion sentinel for "the leader
// found the key already cached": followers re-read the cache (each
// acquiring its own entry reference) instead of sharing an unrefcounted
// body.
var errFlightRetry = errors.New("serve: flight retry")

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
func (c *Cache) Fetch(ctx context.Context, key CacheKey, tenant string, run func() (Result, error)) (res Result, release func(), outcome CacheOutcome, err error) {
	noop := func() {}
	ts := c.tstats(tenant)
	countMiss := true
attempt:
	for {
		if e, ok := c.lookup(key, ts, countMiss); ok {
			return Result{Body: e.Body, Meta: e.Meta.meta}, func() { c.lru.Release(e) }, CacheHit, nil
		}
		countMiss = false
		f, leader := c.flights.Join(key)
		for !leader {
			select {
			case <-f.Done():
				got := f.Result()
				if got.err == errFlightRetry {
					// The previous leader found a fresh fill; re-read it
					// under our own entry reference.
					continue attempt
				}
				if got.err != nil {
					return Result{}, noop, CacheCollapsed, got.err
				}
				c.collapsed.Add(1)
				ts.collapsed.Add(1)
				return got.res, noop, CacheCollapsed, nil
			case <-f.Promoted():
				c.flights.Claim(f)
				c.promotions.Add(1)
				leader = true
			case <-ctx.Done():
				c.flights.Leave(key, f)
				return Result{}, noop, CacheCollapsed, ctx.Err()
			}
		}
		// Leader. Re-check the cache first: a previous flight may have
		// filled the key between our lookup and join, and a promoted
		// leader inherits that window too. This recheck is what makes
		// "N identical requests, exactly one decode" airtight.
		if e, ok := c.lookup(key, ts, false); ok {
			c.flights.Complete(key, f, fetched{err: errFlightRetry})
			return Result{Body: e.Body, Meta: e.Meta.meta}, func() { c.lru.Release(e) }, CacheHit, nil
		}
		finished := false
		defer func() {
			// Panic safety: a leader that unwinds without completing
			// abdicates so followers are promoted, never stranded.
			if !finished {
				c.flights.Abdicate(key, f)
			}
		}()
		res, err = run()
		if err != nil && leaderSpecificErr(err) {
			finished = true
			c.flights.Abdicate(key, f)
			return Result{}, noop, CacheMiss, err
		}
		if err == nil {
			c.put(key, ts, res)
		}
		finished = true
		c.flights.Complete(key, f, fetched{res, err})
		return res, noop, CacheMiss, err
	}
}
