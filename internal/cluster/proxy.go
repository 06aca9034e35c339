package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"eclipse/internal/serve"
)

// The proxy path. One client request becomes 0..N upstream attempts.
// With the L1 enabled, a fresh resident entry answers with zero
// attempts; a stale one costs a single If-None-Match revalidation; and
// a storm of identical misses collapses onto one leader's attempt
// (fill.go). When the request does go upstream: the primary goes to
// the rendezvous-preferred backend; bounded retries with jittered
// exponential backoff follow safe failures (connect errors and 429/503
// pushback — cases where the backend either never saw the request or
// explicitly refused it); one hedge may be launched at the
// next-preferred backend when the primary outlives the per-kind p95.
// Whatever attempt finishes first with a decisive response is relayed;
// the losers are cancelled.
//
// Upstream bodies are buffered only up to the per-object cap
// (Config.L1MaxObject). At or under the cap the old invariant holds
// exactly: a backend dying mid-response yields a clean 502, never a
// partial body with a 200 status line, and the buffered bytes are
// eligible for the L1 fill. Over the cap the response streams through
// without further buffering — gateway memory stays bounded by the cap
// regardless of response size — and a death mid-stream severs the
// client connection so truncation is never mistaken for a clean EOF.

const (
	// BackendHeader names the backend that served a proxied response.
	BackendHeader = "X-Backend"
	// HedgeWinHeader marks responses won by the hedge attempt.
	HedgeWinHeader = "X-Hedge-Win"
	// CacheHeader carries the cache outcome. Backends set it to their
	// own outcome (miss/hit/collapsed/...); the gateway overrides it on
	// L1-origin responses with the l1-* values below.
	CacheHeader = "X-Cache"

	// XCacheL1Hit marks a response served from a fresh L1 entry.
	XCacheL1Hit = "l1-hit"
	// XCacheL1Revalidated marks a stale L1 entry refreshed by a 304.
	XCacheL1Revalidated = "l1-revalidated"
	// XCacheL1Collapsed marks a follower served off another request's
	// in-flight fill.
	XCacheL1Collapsed = "l1-collapsed"
)

// hopHeaders are connection-scoped and must not cross the proxy
// (RFC 9110 §7.6.1). Content-Length is re-derived from the buffered
// body; X-Timeout-Ms is rewritten to the remaining budget per attempt.
var hopHeaders = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Proxy-Connection":    true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
	"Content-Length":      true,
	"X-Timeout-Ms":        true,
}

// uncacheableHeaders are response headers that describe one exchange,
// not the content: they are stripped from L1 entries and regenerated
// per hit (Age, X-Cache, X-Backend) or dropped (Date).
var uncacheableHeaders = map[string]bool{
	CacheHeader:    true,
	BackendHeader:  true,
	HedgeWinHeader: true,
	"Date":         true,
	"Age":          true,
}

// attemptClass says what one upstream attempt produced.
type attemptClass int

const (
	// classFinal: a decisive response (2xx/3xx/4xx except 429, or a
	// non-pushback 5xx) — relay it verbatim, never retry. Retrying a
	// plain 500 would duplicate work the backend already admitted.
	classFinal attemptClass = iota
	// classPushback: 429 or 503 — the backend refused before doing the
	// work, so a retry elsewhere is safe. If retries run out the last
	// pushback is relayed verbatim, Retry-After and all, so the
	// scheduler's EWMA hint survives the gateway hop.
	classPushback
	// classTransport: no response at all (connect refused, reset before
	// headers). The backend never saw the request; retry is safe.
	classTransport
	// classMidStream: headers arrived, then the body died within the
	// buffered cap. The work may have partially executed and the client
	// must never see the partial payload: 502, no retry.
	classMidStream
	// classCancelled: this attempt lost a race we already decided (or
	// the overall budget expired); its outcome is void.
	classCancelled
)

// attemptResp is one upstream attempt's outcome. When stream is
// non-nil the response exceeded the buffering cap: body holds exactly
// the cap's worth of prefix and stream is the still-open remainder,
// which the winner relays live and a loser's context cancel tears
// down.
type attemptResp struct {
	b             *Backend
	class         attemptClass
	status        int
	header        http.Header
	body          []byte
	stream        io.ReadCloser
	contentLength int64 // upstream Content-Length; -1 when unknown
	err           error
	hedge         bool
}

// handleMedia serves POST /v1/{decode,encode,transcode}.
func (g *Gateway) handleMedia(w http.ResponseWriter, r *http.Request) {
	kind, ok := kindOfPath(r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		http.Error(w, "cluster: reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The routing key is the backend's own content-address cache key,
	// computed from the same bytes the backend will hash: affinity is
	// exact, not approximate — and it doubles as the L1 key and the
	// entity tag, so the whole hierarchy speaks one address space.
	key, err := requestKey(kind, r, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	timeout, err := serve.TimeoutFromHeader(r.Header)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	var deadline time.Time
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		deadline, _ = ctx.Deadline()
	}

	g.met.Requests[kind].Add(1)
	g.met.BytesIn.Add(uint64(len(body)))
	if g.l1 != nil {
		g.serveL1(ctx, w, r, kind, key, body, deadline)
		return
	}
	start := time.Now()
	g.do(ctx, w, r, kind, key, body, deadline, false, nil)
	g.met.Latency[kind].Observe(time.Since(start))
}

// serveL1 is the request path with the L1 enabled: local 304s, fresh
// hits, collapsed followers, and — only when the near tier cannot
// answer — a proxied exchange that fills it.
//
// Latency bookkeeping: Latency[kind] is observed only around real
// proxied exchanges and the hedge trigger reads AttemptLat, which only
// successful upstream attempts feed — so sub-millisecond L1 hits can
// never drag the adaptive p95 down and make hedging fire on every
// proxied miss. Hits go to the separate L1HitLat histogram.
func (g *Gateway) serveL1(ctx context.Context, w http.ResponseWriter, r *http.Request,
	kind serve.Kind, key serve.CacheKey, body []byte, deadline time.Time) {

	// A client that already holds the bytes proves it with the content
	// address; the match is decidable locally, no lookup or backend
	// traffic needed.
	if inm := r.Header.Get("If-None-Match"); inm != "" && serve.ETagMatches(inm, key) {
		g.met.L1ClientNotMod.Add(1)
		h := w.Header()
		h.Set("ETag", key.ETag())
		h.Set(CacheHeader, XCacheL1Hit)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	start := time.Now()
	collapsed := false // parked on another request's flight at least once
attempt:
	for {
		var reval *l1Entry // stale resident entry to revalidate, ref held
		if e, ok := g.l1.Get(key); ok {
			if e.Meta.fresh(time.Now()) {
				xc := XCacheL1Hit
				if collapsed {
					g.met.L1Collapsed.Add(1)
					xc = XCacheL1Collapsed
				} else {
					g.met.L1Hits.Add(1)
				}
				g.serveL1Entry(w, kind, e, xc)
				g.l1.Release(e)
				g.met.L1HitLat.Observe(time.Since(start))
				return
			}
			g.met.L1Stale.Add(1)
			reval = e
		} else if !collapsed {
			g.met.L1Misses.Add(1)
		}

		f, leader := g.l1.flights.Join(key)
		if !leader && reval != nil {
			// A follower parks without the entry; the flight's leader is
			// already revalidating (or refilling) this key.
			g.l1.Release(reval)
			reval = nil
		}
		for !leader {
			select {
			case <-f.Done():
				switch got := f.Result(); got.outcome {
				case flightFilled:
					// The key is resident now; serve it under our own
					// entry reference.
					collapsed = true
					continue attempt
				case flightShared:
					g.met.L1Collapsed.Add(1)
					if got.res != nil {
						g.writeShared(w, kind, got.res)
					} else {
						g.writeError(w, kind, got.gwStatus, got.gwMsg)
					}
					return
				default:
					// flightSolo: the leader's outcome was tied to its own
					// connection (over-cap stream, mid-stream 502). Proxy
					// independently.
					pstart := time.Now()
					g.do(ctx, w, r, kind, key, body, deadline, true, nil)
					g.met.Latency[kind].Observe(time.Since(pstart))
					return
				}
			case <-f.Promoted():
				g.l1.flights.Claim(f)
				leader = true
			case <-ctx.Done():
				g.l1.flights.Leave(key, f)
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					g.writeError(w, kind, http.StatusGatewayTimeout, "cluster: timeout budget exhausted")
				} else {
					g.writeError(w, kind, 499, "client closed request")
				}
				return
			}
		}

		// Leader. Re-check the cache first: a previous flight may have
		// filled or refreshed the key between our lookup and join, and a
		// promoted leader inherits that window too. This recheck is what
		// makes "32 identical requests, one backend round-trip" airtight.
		if reval == nil {
			if e, ok := g.l1.Get(key); ok {
				if e.Meta.fresh(time.Now()) {
					g.l1.flights.Complete(key, f, doResult{outcome: flightFilled})
					g.met.L1Hits.Add(1)
					g.serveL1Entry(w, kind, e, XCacheL1Hit)
					g.l1.Release(e)
					g.met.L1HitLat.Observe(time.Since(start))
					return
				}
				g.met.L1Stale.Add(1)
				reval = e
			}
		}

		finished := false
		defer func() {
			// Panic safety: a leader that unwinds without completing
			// abdicates so followers are promoted, never stranded.
			if !finished {
				g.l1.flights.Abdicate(key, f)
			}
		}()
		pstart := time.Now()
		dr := g.do(ctx, w, r, kind, key, body, deadline, true, reval)
		g.met.Latency[kind].Observe(time.Since(pstart))
		if reval != nil {
			g.l1.Release(reval)
		}
		finished = true
		if dr.leaderSpec {
			// Our budget died or our client hung up — the key is fine.
			// Hand leadership to a parked follower.
			g.l1.flights.Abdicate(key, f)
		} else {
			g.l1.flights.Complete(key, f, dr)
		}
		return
	}
}

// serveL1Entry writes a resident entry to the client. The caller holds
// an entry reference for the duration of the write, so concurrent
// eviction cannot recycle the slab mid-response.
func (g *Gateway) serveL1Entry(w http.ResponseWriter, kind serve.Kind, e *l1Entry, xcache string) {
	h := w.Header()
	for k, vv := range e.Meta.header {
		h[k] = vv
	}
	h.Set(BackendHeader, e.Meta.backend)
	h.Set(CacheHeader, xcache)
	h.Set("Age", strconv.Itoa(e.Meta.ageSeconds(time.Now())))
	h.Set("Content-Length", strconv.Itoa(len(e.Body)))
	w.WriteHeader(http.StatusOK)
	w.Write(e.Body)
	g.met.BytesOut.Add(uint64(len(e.Body)))
}

// writeShared relays a flight leader's buffered response to a
// follower: same status, same bytes, marked as collapsed.
func (g *Gateway) writeShared(w http.ResponseWriter, kind serve.Kind, res *attemptResp) {
	h := w.Header()
	for k, vv := range res.header {
		if hopHeaders[http.CanonicalHeaderKey(k)] {
			continue
		}
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	h.Set(BackendHeader, res.b.name)
	h.Set(CacheHeader, XCacheL1Collapsed)
	h.Set("Content-Length", strconv.Itoa(len(res.body)))
	if res.status >= http.StatusBadRequest {
		g.met.Errors[kind].Add(1)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
	g.met.BytesOut.Add(uint64(len(res.body)))
}

// do orchestrates the attempts for one request, writes the response,
// and reports how the exchange ended for the flight table. fill allows
// a 200 body to be copied into the L1; reval, when non-nil, is a stale
// resident entry whose content address is sent upstream as
// If-None-Match — a 304 then refreshes it without a body transfer.
func (g *Gateway) do(ctx context.Context, w http.ResponseWriter, r *http.Request,
	kind serve.Kind, key serve.CacheKey, body []byte, deadline time.Time,
	fill bool, reval *l1Entry) doResult {

	order := g.ring.order(key)
	if len(order) == 0 {
		g.met.NoBackend.Add(1)
		msg := "cluster: no routable backend"
		w.Header().Set("Retry-After", "1")
		g.writeError(w, kind, http.StatusServiceUnavailable, msg)
		return doResult{outcome: flightShared, gwStatus: http.StatusServiceUnavailable, gwMsg: msg}
	}

	inm := ""
	if reval != nil {
		inm = key.ETag()
	}

	maxAttempts := 1 + g.cfg.MaxRetries + 1 // primary + retries + hedge
	// Buffered to capacity: a cancelled loser can always deliver its
	// result and exit, even after do has returned. No goroutine leaks.
	results := make(chan *attemptResp, maxAttempts)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	next := 0     // cursor into the preference order (wraps)
	inflight := 0 // attempts whose outcome is still pending
	launch := func(hedge bool) {
		b := order[next%len(order)]
		for i := 0; i < len(order); i++ {
			if cand := order[(next+i)%len(order)]; cand.Routable() {
				b = cand
				next += i
				break
			}
		}
		next++
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		inflight++
		b.requests.Add(1)
		if hedge {
			b.hedges.Add(1)
		}
		go g.attempt(actx, results, b, kind, r, body, deadline, hedge, inm)
	}
	launch(false)

	var hedgeC <-chan time.Time
	if !g.cfg.HedgeDisabled && len(order) > 1 {
		ht := time.NewTimer(g.hedgeDelay(kind))
		defer ht.Stop()
		hedgeC = ht.C
	}
	var retryTimer *time.Timer
	defer func() {
		if retryTimer != nil {
			retryTimer.Stop()
		}
	}()
	var retryC <-chan time.Time

	retries := 0
	var lastPush *attemptResp
	var lastErr error

	scheduleRetry := func() bool {
		if retries >= g.cfg.MaxRetries {
			return false
		}
		retries++
		g.met.Retries.Add(1)
		d := g.cfg.RetryBase << (retries - 1)
		if d > g.cfg.RetryMax {
			d = g.cfg.RetryMax
		}
		// ±50% jitter decorrelates retry bursts across clients.
		d = d/2 + time.Duration(rand.Int63n(int64(d)))
		retryTimer = time.NewTimer(d)
		retryC = retryTimer.C
		return true
	}

	// finish relays the terminal outcome once every avenue is spent.
	finish := func() doResult {
		if lastPush != nil {
			// The satellite guarantee: the last pushback response —
			// including the scheduler's EWMA Retry-After — crosses the
			// gateway verbatim.
			g.met.Passthrough.Add(1)
			g.writeResponse(w, kind, key, lastPush, false)
			return doResult{outcome: flightShared, res: lastPush}
		}
		msg := "cluster: all upstream attempts failed"
		if lastErr != nil {
			msg += ": " + lastErr.Error()
		}
		g.writeError(w, kind, http.StatusBadGateway, msg)
		return doResult{outcome: flightShared, gwStatus: http.StatusBadGateway, gwMsg: msg}
	}
	budgetDone := func() doResult {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			g.writeError(w, kind, http.StatusGatewayTimeout, "cluster: timeout budget exhausted")
		} else {
			// Client went away; 499 in the nginx tradition. Nobody is
			// reading, but the metrics row should say what happened.
			g.writeError(w, kind, 499, "client closed request")
		}
		return doResult{leaderSpec: true}
	}

	for {
		select {
		case <-ctx.Done():
			return budgetDone()

		case <-hedgeC:
			hedgeC = nil
			// Hedge only while the primary is still pending and there is
			// a second node to hedge to.
			if inflight > 0 && g.ring.routable() >= 2 {
				g.met.Hedges[kind].Add(1)
				launch(true)
			}

		case <-retryC:
			retryC = nil
			retryTimer = nil
			launch(false)

		case res := <-results:
			inflight--
			switch res.class {
			case classCancelled:
				if inflight == 0 && retryC == nil {
					if ctx.Err() != nil {
						return budgetDone()
					}
					return finish()
				}

			case classFinal:
				if res.hedge {
					g.met.HedgeWins[kind].Add(1)
				}
				if reval != nil && res.status == http.StatusNotModified {
					// The backend confirmed the entry's content address:
					// refresh residency, serve the resident bytes, and no
					// body ever crossed the wire.
					reval.Meta.touch(freshnessTTL(res.header, g.cfg.L1TTL))
					g.met.L1Revalidations.Add(1)
					g.serveL1Entry(w, kind, reval, XCacheL1Revalidated)
					return doResult{outcome: flightFilled}
				}
				filled := g.writeResponse(w, kind, key, res, fill)
				switch {
				case res.stream != nil:
					return doResult{outcome: flightSolo}
				case filled:
					return doResult{outcome: flightFilled}
				default:
					return doResult{outcome: flightShared, res: res}
				}

			case classMidStream:
				g.met.MidStream.Add(1)
				g.writeError(w, kind, http.StatusBadGateway,
					"cluster: upstream failed mid-response: "+res.err.Error())
				return doResult{outcome: flightSolo}

			case classPushback, classTransport:
				if res.class == classPushback {
					lastPush = res
				} else {
					lastErr = res.err
				}
				if retryC == nil && !scheduleRetry() && inflight == 0 {
					return finish()
				}
			}
		}
	}
}

// attempt runs one upstream try and accounts its passive health signal.
func (g *Gateway) attempt(ctx context.Context, results chan<- *attemptResp, b *Backend,
	kind serve.Kind, r *http.Request, body []byte, deadline time.Time, hedge bool, inm string) {

	res := g.roundTrip(ctx, b, kind, r, body, deadline, inm)
	res.hedge = hedge
	switch res.class {
	case classFinal:
		if res.status < http.StatusInternalServerError {
			g.passiveSuccess(b)
		} else {
			b.errors.Add(1)
			g.passiveFailure(b)
		}
	case classPushback:
		// Load pushback is not node death: never ejects. But a draining
		// marker pulls the backend out of the ring immediately.
		if res.header.Get(serve.DrainingHeader) != "" {
			g.passiveDraining(b)
		}
	case classTransport, classMidStream:
		b.errors.Add(1)
		g.passiveFailure(b)
	}
	results <- res
}

// roundTrip performs the HTTP exchange for one attempt, buffering the
// upstream body up to the per-object cap, and classifies the outcome.
// inm, when set, is injected as If-None-Match (L1 revalidation).
func (g *Gateway) roundTrip(ctx context.Context, b *Backend, kind serve.Kind,
	r *http.Request, body []byte, deadline time.Time, inm string) *attemptResp {

	res := &attemptResp{b: b, contentLength: -1}
	u := *b.url
	u.Path = b.url.Path + r.URL.Path
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.String(), bytes.NewReader(body))
	if err != nil {
		res.class, res.err = classTransport, err
		return res
	}
	for k, vv := range r.Header {
		if hopHeaders[http.CanonicalHeaderKey(k)] {
			continue
		}
		req.Header[k] = vv
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	if !deadline.IsZero() {
		remaining := time.Until(deadline).Milliseconds()
		if remaining < 1 {
			remaining = 1
		}
		req.Header.Set("X-Timeout-Ms", strconv.FormatInt(remaining, 10))
	}

	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			res.class, res.err = classCancelled, ctx.Err()
		} else {
			res.class, res.err = classTransport, fmt.Errorf("%s: %v", b.name, err)
		}
		return res
	}
	// The response-side memory ceiling: never buffer more than the
	// per-object cap, no matter what the backend sends.
	buf, overflow, err := readCapped(resp.Body, g.cfg.L1MaxObject)
	if err != nil {
		resp.Body.Close()
		if ctx.Err() != nil {
			res.class, res.err = classCancelled, ctx.Err()
			return res
		}
		res.class, res.err = classMidStream, fmt.Errorf("%s: %v", b.name, err)
		return res
	}

	res.status = resp.StatusCode
	res.header = resp.Header
	res.body = buf
	res.contentLength = resp.ContentLength
	if overflow {
		// Over the cap: hold the body open and let the winner relay the
		// remainder live (a loser's context cancel tears it down). Even
		// an oversized pushback is final here — its body cannot be
		// replayed for a retry.
		res.stream = resp.Body
		res.class = classFinal
		return res
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		res.class = classPushback
		return res
	}
	res.class = classFinal
	if resp.StatusCode < http.StatusMultipleChoices {
		// Successful proxied attempts only: this is the distribution the
		// hedge trigger reads, kept clean of the tails hedging truncates
		// — and of L1 hits and 304 revalidations, which never get here.
		g.met.AttemptLat[kind].Observe(time.Since(start))
	}
	return res
}

// writeResponse relays an upstream response to the client verbatim,
// minus hop-by-hop headers, plus the gateway's provenance headers.
// Buffered 200s are tee-filled into the L1 when fill is set; the
// return value reports whether the key is now resident. An over-cap
// response streams its remainder after the buffered prefix.
func (g *Gateway) writeResponse(w http.ResponseWriter, kind serve.Kind, key serve.CacheKey,
	res *attemptResp, fill bool) bool {

	h := w.Header()
	for k, vv := range res.header {
		if hopHeaders[http.CanonicalHeaderKey(k)] {
			continue
		}
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	h.Set(BackendHeader, res.b.name)
	if res.hedge {
		h.Set(HedgeWinHeader, "1")
	}
	if res.stream == nil {
		h.Set("Content-Length", strconv.Itoa(len(res.body)))
	} else if res.contentLength >= 0 {
		h.Set("Content-Length", strconv.FormatInt(res.contentLength, 10))
	}
	if res.status >= http.StatusBadRequest {
		g.met.Errors[kind].Add(1)
	}
	filled := false
	if fill && g.l1 != nil && res.stream == nil && res.status == http.StatusOK {
		// The tee: the same buffered bytes go to the client and (copied
		// into a slab) into the L1. Fill before the write so a follower
		// woken by flightFilled always finds the entry.
		filled = g.l1.put(key, res.b.name, cacheableHeader(res.header), res.body,
			freshnessTTL(res.header, g.cfg.L1TTL))
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
	g.met.BytesOut.Add(uint64(len(res.body)))
	if res.stream != nil {
		g.met.StreamThrough.Add(1)
		n, err := io.Copy(w, res.stream)
		res.stream.Close()
		g.met.BytesOut.Add(uint64(n))
		if err != nil {
			// The buffered prefix is already on the wire under a 200
			// status line; the only honest exit is to sever the
			// connection so the client sees a truncated transfer, never
			// a clean EOF over partial bytes.
			g.met.StreamTruncated.Add(1)
			panic(http.ErrAbortHandler)
		}
	}
	return filled
}

// cacheableHeader extracts the content-describing headers of a
// response for an L1 entry: hop-by-hop and per-exchange headers out,
// everything else (ETag, Content-Type, Cache-Control, ...) copied.
func cacheableHeader(h http.Header) http.Header {
	out := make(http.Header, len(h))
	for k, vv := range h {
		ck := http.CanonicalHeaderKey(k)
		if hopHeaders[ck] || uncacheableHeaders[ck] {
			continue
		}
		out[ck] = append([]string(nil), vv...)
	}
	return out
}

// writeError emits a gateway-originated error.
func (g *Gateway) writeError(w http.ResponseWriter, kind serve.Kind, code int, msg string) {
	g.met.Errors[kind].Add(1)
	http.Error(w, msg, code)
}

// kindOfPath maps the request path to a job kind.
func kindOfPath(path string) (serve.Kind, bool) {
	switch path {
	case "/v1/decode":
		return serve.KindDecode, true
	case "/v1/encode":
		return serve.KindEncode, true
	case "/v1/transcode":
		return serve.KindTranscode, true
	}
	return 0, false
}

// requestKey computes the backend's content-address cache key for the
// request — the routing key that makes cache affinity cluster-wide.
func requestKey(kind serve.Kind, r *http.Request, body []byte) (serve.CacheKey, error) {
	switch kind {
	case serve.KindEncode:
		cfg, err := serve.EncodeConfigFromQuery(r.URL.Query())
		if err != nil {
			return serve.CacheKey{}, err
		}
		return serve.EncodeKey(cfg, body), nil
	case serve.KindTranscode:
		q, err := serve.TranscodeQFromQuery(r.URL.Query())
		if err != nil {
			return serve.CacheKey{}, err
		}
		return serve.TranscodeKey(q, body), nil
	default:
		return serve.DecodeKey(body), nil
	}
}
