package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"eclipse/internal/flight"
	"eclipse/internal/serve"
	"eclipse/internal/slab"
)

// The proxy path. One client request becomes 0..N upstream attempts,
// and never more than one at a time. With the L1 enabled, a resident
// entry answers with zero attempts, and a storm of identical misses
// collapses onto one leader's attempt (fill.go). When the request does go
// upstream, the first attempt goes to the rendezvous-preferred backend;
// bounded retries with jittered exponential backoff follow safe
// failures (connect errors and 429/503 pushback — cases where the
// backend either never saw the request or explicitly refused it). Each
// attempt runs on the request's own context and finishes before the
// next one starts: a request never has two attempts in flight.
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
	// CacheHeader carries the cache outcome. Backends set it to their
	// own outcome (miss/hit/collapsed/...); the gateway overrides it on
	// L1-origin responses with the l1-* values below.
	CacheHeader = "X-Cache"

	// XCacheL1Hit marks a response served from a resident L1 entry.
	XCacheL1Hit = "l1-hit"
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
// per hit (X-Cache, X-Backend) or dropped (Date, Age).
var uncacheableHeaders = map[string]bool{
	CacheHeader:   true,
	BackendHeader: true,
	"Date":        true,
	"Age":         true,
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
	// classCancelled: the request's budget expired or its client went
	// away mid-attempt; the outcome is void.
	classCancelled
)

// attemptResp is one upstream attempt's outcome. When stream is
// non-nil the response exceeded the buffering cap: body holds exactly
// the cap's worth of prefix and stream is the still-open remainder,
// which writeResponse relays live and then closes.
type attemptResp struct {
	b             *Backend
	class         attemptClass
	status        int
	header        http.Header
	body          []byte // a g.bufs slab (see do)
	stream        io.ReadCloser
	contentLength int64 // upstream Content-Length; -1 when unknown
	err           error
}

// reqBody is a client request body in a g.bufs slab. Its stakes are the
// handler's and one per upstream body, dropped by that body's first Close:
// a transport may close a body after RoundTrip returns (net/http goes on
// writing one the backend answered before reading it), so the slab goes
// back with the last stake.
type reqBody struct {
	buf  []byte
	pool *slab.Pool
	refs atomic.Int32
}

func (b *reqBody) release() {
	if b.refs.Add(-1) == 0 {
		b.pool.Put(b.buf)
	}
}

// stake returns a new upstream body over b, as http.Request.GetBody.
func (b *reqBody) stake() (io.ReadCloser, error) {
	b.refs.Add(1)
	return &bodyStake{Reader: *bytes.NewReader(b.buf), body: b}, nil
}

// bodyStake is one upstream body; its reader gives the transport WriteTo.
type bodyStake struct {
	bytes.Reader
	body   *reqBody
	closed atomic.Bool
}

func (s *bodyStake) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		s.body.release()
	}
	return nil
}

// upstreamConn copies through a pooled slab in ReadFrom, through which
// net/http writes a body it cannot tell is in memory (a bodyStake):
// *net.TCPConn's allocates a copy buffer the body's size.
type upstreamConn struct {
	net.Conn
	w    io.Writer // the connection without its ReadFrom
	bufs *slab.Pool
}

func (c *upstreamConn) ReadFrom(r io.Reader) (int64, error) {
	buf := c.bufs.Get(32 << 10)
	defer c.bufs.Put(buf)
	return io.CopyBuffer(c.w, r, buf)
}

// dialUpstream is the DialContext of the gateway's own transport.
func (g *Gateway) dialUpstream(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &upstreamConn{Conn: c, w: struct{ io.Writer }{c}, bufs: &g.bufs}, nil
}

// handleMedia serves POST kind.Path(). The request is accepted by the
// backend's own front end (serve.Accept), so the two tiers accept the
// same requests and answer a refused one alike. The routing key is the
// backend's content-address cache key, computed from the same bytes the
// backend will hash: affinity is exact, not approximate, and the key
// doubles as the L1 key and the entity tag, so the whole hierarchy speaks
// one address space.
func (g *Gateway) handleMedia(kind serve.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		serve.Accept(w, r, kind, &g.bufs, g.cfg.MaxBodyBytes, func(ctx context.Context, p serve.Params, buf []byte) {
			body := &reqBody{buf: buf, pool: &g.bufs}
			body.refs.Store(1)
			defer body.release()
			key := p.Key(buf)
			deadline, _ := ctx.Deadline()

			g.met.Requests[kind].Add(1)
			g.met.BytesIn.Add(uint64(len(buf)))
			if g.l1 != nil {
				g.serveL1(ctx, w, r, kind, key, body, deadline)
				return
			}
			start := time.Now()
			g.doUnshared(ctx, w, r, kind, key, body, deadline)
			g.met.Latency[kind].Observe(time.Since(start))
		})
	}
}

// doUnshared runs do for a request that publishes no flight.
func (g *Gateway) doUnshared(ctx context.Context, w http.ResponseWriter, r *http.Request,
	kind serve.Kind, key serve.CacheKey, body *reqBody, deadline time.Time) {
	if dr, _ := g.do(ctx, w, r, kind, key, body, deadline, g.l1 != nil); dr.res != nil {
		g.bufs.Put(dr.res.body)
	}
}

// serveL1 is the request path with the L1 enabled: local 304s, hits,
// collapsed followers, and — only when the near tier cannot
// answer — a proxied exchange that fills it. Latency[kind] is observed
// only around real proxied exchanges; hits go to L1HitLat.
func (g *Gateway) serveL1(ctx context.Context, w http.ResponseWriter, r *http.Request,
	kind serve.Kind, key serve.CacheKey, body *reqBody, deadline time.Time) {

	// A client that already holds the bytes proves it with the content
	// address; the match is decidable locally, no lookup or backend
	// traffic needed.
	if inm := r.Header.Get("If-None-Match"); inm != "" && serve.ETagMatches(inm, key) {
		g.met.L1ClientNotMod.Add(1)
		h := w.Header()
		h.Set("ETag", key.ETag())
		h.Set("Cache-Control", serve.ImmutableCacheControl)
		h.Set(CacheHeader, XCacheL1Hit)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	start := time.Now()
	var e *l1Entry
	first := true // one miss per request, however often it looks
	lookup := func() (ok bool) {
		e, ok = g.l1.Get(key)
		if !ok && first {
			g.met.L1Misses.Add(1)
		}
		first = false
		return ok
	}
	dr, role, err := g.l1.flights.Do(ctx, key, lookup, func() (doResult, flight.Verdict) {
		pstart := time.Now()
		dr, v := g.do(ctx, w, r, kind, key, body, deadline, true)
		g.met.Latency[kind].Observe(time.Since(pstart))
		return dr, v
	})
	switch role {
	case flight.Hit, flight.HitAfterWait:
		xc := XCacheL1Hit
		if role == flight.HitAfterWait {
			g.met.L1Collapsed.Add(1)
			xc = XCacheL1Collapsed
		} else {
			g.met.L1Hits.Add(1)
		}
		g.serveL1Entry(w, kind, e, xc)
		g.l1.Release(e)
		g.met.L1HitLat.Observe(time.Since(start))
	case flight.Followed:
		switch {
		case err != nil:
			g.budgetDone(ctx, w, kind)
		case dr.res != nil:
			g.met.L1Collapsed.Add(1)
			g.writeResponse(w, kind, key, dr.res, false, XCacheL1Collapsed)
		case dr.gwStatus != 0:
			g.met.L1Collapsed.Add(1)
			g.writeError(w, kind, dr.gwStatus, dr.gwMsg)
		default:
			// The leader's outcome was tied to its own connection
			// (over-cap stream, mid-stream 502). Proxy independently.
			pstart := time.Now()
			g.doUnshared(ctx, w, r, kind, key, body, deadline)
			g.met.Latency[kind].Observe(time.Since(pstart))
		}
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
	h.Set("Content-Length", strconv.Itoa(len(e.Body)))
	w.WriteHeader(http.StatusOK)
	w.Write(e.Body)
	g.met.BytesOut.Add(uint64(len(e.Body)))
}

// do runs the attempts for one request, one at a time, writes the
// response, and reports how the exchange ended for the flight table.
// fill allows a 200 body to be copied into the L1. do returns an
// upstream body to g.bufs after the write, but a published one to its
// caller: a leader's followers relay it (it is left to the GC, as one
// dropped on a retry or while unwinding is); doUnshared puts it.
func (g *Gateway) do(ctx context.Context, w http.ResponseWriter, r *http.Request,
	kind serve.Kind, key serve.CacheKey, body *reqBody, deadline time.Time,
	fill bool) (doResult, flight.Verdict) {

	order := g.ring.order(key)
	if len(order) == 0 {
		g.met.NoBackend.Add(1)
		msg := "cluster: no routable backend"
		w.Header().Set("Retry-After", "1")
		g.writeError(w, kind, http.StatusServiceUnavailable, msg)
		return doResult{gwStatus: http.StatusServiceUnavailable, gwMsg: msg}, flight.Publish
	}

	var lastPush *attemptResp
	var lastErr error
	next := 0 // cursor into the preference order (wraps)
	for retries := 0; ; retries++ {
		if retries > 0 && !g.backoff(ctx, retries) {
			return g.budgetDone(ctx, w, kind)
		}
		b := order[next%len(order)]
		for i := 0; i < len(order); i++ {
			if cand := order[(next+i)%len(order)]; cand.Routable() {
				b = cand
				next += i
				break
			}
		}
		next++

		res := g.attempt(ctx, b, r, body, deadline)
		switch res.class {
		case classCancelled:
			return g.budgetDone(ctx, w, kind)

		case classFinal:
			filled := g.writeResponse(w, kind, key, res, fill, "")
			switch {
			case res.stream != nil:
				g.bufs.Put(res.body)
				return doResult{}, flight.Publish
			case filled:
				g.bufs.Put(res.body) // the L1 holds its own copy
				return doResult{}, flight.Resident
			default:
				return doResult{res: res}, flight.Publish
			}

		case classMidStream:
			g.met.MidStream.Add(1)
			g.writeError(w, kind, http.StatusBadGateway,
				"cluster: upstream failed mid-response: "+res.err.Error())
			return doResult{}, flight.Publish

		case classPushback, classTransport:
			if res.class == classPushback {
				lastPush = res
			} else {
				lastErr = res.err
			}
			if retries < g.cfg.MaxRetries {
				continue
			}
			if lastPush != nil {
				// The last pushback response — including the scheduler's
				// EWMA Retry-After — crosses the gateway verbatim.
				g.met.Passthrough.Add(1)
				g.writeResponse(w, kind, key, lastPush, false, "")
				return doResult{res: lastPush}, flight.Publish
			}
			msg := "cluster: all upstream attempts failed: " + lastErr.Error()
			g.writeError(w, kind, http.StatusBadGateway, msg)
			return doResult{gwStatus: http.StatusBadGateway, gwMsg: msg}, flight.Publish
		}
	}
}

// backoff counts the nth retry and waits out its jittered exponential
// delay. It reports false, having waited less, if ctx ends first.
func (g *Gateway) backoff(ctx context.Context, n int) bool {
	g.met.Retries.Add(1)
	d := g.cfg.RetryBase << (n - 1)
	if d > g.cfg.RetryMax {
		d = g.cfg.RetryMax
	}
	// ±50% jitter decorrelates retry bursts across clients.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// budgetDone answers a request whose context ended before an upstream
// answer was relayed.
func (g *Gateway) budgetDone(ctx context.Context, w http.ResponseWriter, kind serve.Kind) (doResult, flight.Verdict) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		g.writeError(w, kind, http.StatusGatewayTimeout, "cluster: timeout budget exhausted")
	} else {
		// Client went away; 499 in the nginx tradition. Nobody is
		// reading, but the metrics row should say what happened.
		g.writeError(w, kind, 499, "client closed request")
	}
	return doResult{}, flight.Abdicate
}

// attempt runs one upstream try and accounts its passive health signal.
func (g *Gateway) attempt(ctx context.Context, b *Backend,
	r *http.Request, body *reqBody, deadline time.Time) *attemptResp {

	b.requests.Add(1)
	res := g.roundTrip(ctx, b, r, body, deadline)
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
	return res
}

// roundTrip performs the HTTP exchange for one attempt, buffering the
// upstream body up to the per-object cap, and classifies the outcome.
func (g *Gateway) roundTrip(ctx context.Context, b *Backend,
	r *http.Request, body *reqBody, deadline time.Time) *attemptResp {

	res := &attemptResp{b: b, contentLength: -1}
	u := *b.url
	u.Path = b.url.Path + r.URL.Path
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.String(), nil)
	if err != nil {
		res.class, res.err = classTransport, err
		return res
	}
	if len(body.buf) > 0 {
		// What http.NewRequest sets for a *bytes.Reader, so the transport
		// can replay the request on a dead keep-alive connection.
		req.ContentLength = int64(len(body.buf))
		req.Body, _ = body.stake()
		req.GetBody = body.stake
	}
	for k, vv := range r.Header {
		if hopHeaders[http.CanonicalHeaderKey(k)] {
			continue
		}
		req.Header[k] = vv
	}
	if !deadline.IsZero() {
		remaining := time.Until(deadline).Milliseconds()
		if remaining < 1 {
			remaining = 1
		}
		req.Header.Set("X-Timeout-Ms", strconv.FormatInt(remaining, 10))
	}

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
	buf, overflow, err := g.bufs.ReadCapped(resp.Body, resp.ContentLength, g.cfg.L1MaxObject)
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
		// Over the cap: hold the body open and relay the remainder live.
		// Even an oversized pushback is final here — its body cannot be
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
	return res
}

// writeResponse relays an upstream response to the client verbatim,
// minus hop-by-hop headers, plus the gateway's provenance headers.
// Buffered 200s are tee-filled into the L1 when fill is set; the
// return value reports whether the key is now resident. An over-cap
// response streams its remainder after the buffered prefix. xcache,
// when set, replaces the backend's X-Cache: a flight leader's buffered
// response relayed to a follower is marked l1-collapsed.
func (g *Gateway) writeResponse(w http.ResponseWriter, kind serve.Kind, key serve.CacheKey,
	res *attemptResp, fill bool, xcache string) bool {

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
	if xcache != "" {
		h.Set(CacheHeader, xcache)
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
		// woken by a Resident flight always finds the entry.
		filled = g.l1.put(key, res.b.name, cacheableHeader(res.header), res.body)
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
