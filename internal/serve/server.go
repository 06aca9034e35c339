// Package serve is the production media-serving subsystem: an HTTP
// front end that admits decode / encode / transcode jobs into bounded
// per-tenant queues and executes their units under an Eclipse-style
// scheduler (see DESIGN.md §"Serving" for the full mapping). A job is
// coarse-grained software on general-purpose cores: one decoder, one
// encoder, pause points once per frame. Its units — one for a decode or
// an encode, the GOP-index scan and then one per span for a transcode —
// are goroutines that park at a frame checkpoint while no worker holds
// their gate open (tasks.go). The paper's application model, a Kahn graph of
// tasks and FIFO streams, and its fine-grained six-task decode network
// pay only where each stage is its own engine, so they live on the
// simulator side (internal/kpn, root RunFunctionalDecode), and this
// package imports none of it — a rule TestServingImportGraph enforces.
// The paper's concepts translate as:
//
//   - worker ⇔ coprocessor: a fixed pool of workers each runs a
//     weighted round-robin loop over the tenant queues (Section 5.3's
//     distributed task scheduling);
//   - unit ⇔ task, tenant queue ⇔ task-table row: the round-robin
//     rotates over tenants, with a per-tenant weight, and hands out
//     their queued units;
//   - time slice ⇔ cycle budget: a unit runs for weight×BaseSlice of
//     wall clock, then is preempted at its next frame checkpoint (gate)
//     and requeued behind its tenant's other units;
//   - 429 ⇔ GetSpace failure: admission is a bounded space claim; a
//     full tenant queue rejects instead of buffering unboundedly, and
//     the client retries later (Retry-After), exactly like a producer
//     blocked on PutSpace backpressure.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"eclipse/internal/media"
	"eclipse/internal/metrics"
)

// Server is the HTTP front end: it owns the scheduler, the metrics
// registry, and the shared cross-request frame pool, and exposes the
// media endpoints plus /healthz, /varz, and /metrics.
type Server struct {
	cfg   Config
	sched *Scheduler
	met   *Metrics
	pool  *media.SyncFramePool
	cache *Cache // nil when CacheBytes < 0 disables caching entirely
	mux   *http.ServeMux
}

// New builds a server (and starts its scheduler workers).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	met := NewMetrics()
	s := &Server{
		cfg:   cfg,
		met:   met,
		sched: NewScheduler(cfg, met),
		pool:  media.NewSyncFramePool(cfg.FramePoolCap),
		mux:   http.NewServeMux(),
	}
	if cfg.CacheBytes > 0 {
		s.cache = NewCache(cfg.CacheBytes)
	}
	s.mux.HandleFunc("POST /v1/decode", s.handleDecode)
	s.mux.HandleFunc("POST /v1/encode", s.handleEncode)
	s.mux.HandleFunc("POST /v1/transcode", s.handleTranscode)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Scheduler exposes the scheduler for tests and the load generator.
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Metrics exposes the metrics registry.
func (s *Server) Metrics() *Metrics { return s.met }

// Cache exposes the result cache (nil when disabled).
func (s *Server) Cache() *Cache { return s.cache }

// Shutdown drains the scheduler: admission stops (Submit and the HTTP
// handlers return 503), queued and running jobs complete, workers exit.
// If ctx expires first, the remainder is cancelled.
func (s *Server) Shutdown(ctx context.Context) error { return s.sched.Drain(ctx) }

// tenantOf extracts the tenant name from the request.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// requestCtx derives the job context: the client's disconnect context,
// tightened by an optional X-Timeout-Ms deadline.
func requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	timeout, err := TimeoutFromHeader(r.Header)
	if err != nil {
		return nil, nil, err
	}
	if timeout == 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

// TimeoutFromHeader parses the optional X-Timeout-Ms request header: 0
// when absent, an error unless it is a positive integer. Exported, like
// EncodeConfigFromQuery, so the gateway budgets exactly the deadline the
// backend will enforce.
func TimeoutFromHeader(h http.Header) (time.Duration, error) {
	v := h.Get("X-Timeout-Ms")
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("serve: bad X-Timeout-Ms %q", v)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// bodyChunk is where a body of unknown length starts; it doubles as it fills.
const bodyChunk = 4 << 10

// readBody reads the request payload under the configured cap into a
// reqBufs slab, sized once from Content-Length (at most the cap plus the
// byte that proves an overflow, and room for the final read's EOF) or
// grown through the pool when the length is unknown. The caller returns
// the body to reqBufs once dispatch has returned (bufpool.go); a failed
// read already has. Callers answer a failure with BodyStatus.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	limit := s.cfg.MaxBodyBytes
	rd := http.MaxBytesReader(w, r.Body, limit)
	size := int64(bodyChunk)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, limit) + 1
	}
	buf := reqBufs.Get(int(size))[:0]
	for {
		if len(buf) == cap(buf) {
			grown := reqBufs.Get(int(min(2*int64(cap(buf)), limit+1)))
			copy(grown, buf)
			reqBufs.Put(buf)
			buf = grown[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			reqBufs.Put(buf)
			return nil, err
		}
	}
	s.met.BytesIn.Add(uint64(len(buf)))
	return buf, nil
}

// BodyStatus maps a request-body read error to its HTTP status: 413
// when the body exceeded the MaxBytesReader cap, 400 otherwise. Exported,
// like TimeoutFromHeader, so both tiers answer an oversized body alike.
func BodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// httpError writes a plain-text error with the right status code.
func httpError(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

// runJob submits a job through admission control and waits for its
// completion. It is the unit of work the cache's singleflight leader
// executes: admission rejections and context deaths come back as errors
// for leaderSpecificErr to classify. The job's context derives from the
// request's (NewJob), so a client disconnect or deadline poisons the
// job by itself and with the request's own error — cancelling here as
// well would race that propagation and turn a 504 into a 499. Waiting
// for the unwind releases the job's admission space in order.
func (s *Server) runJob(j *Job) (Result, error) {
	if err := s.sched.Submit(j); err != nil {
		return Result{}, err
	}
	<-j.Done()
	return j.Result()
}

// DrainingHeader marks 503 responses emitted because the server is
// draining, so a gateway can distinguish "going away soon, reroute me"
// from a plain overload and stop routing here before the listener
// closes.
const DrainingHeader = "X-Eclipse-Draining"

// writeJobError maps a job failure to its HTTP status.
func writeJobError(w http.ResponseWriter, err error) {
	var qf *QueueFullError
	switch {
	case errors.As(err, &qf):
		w.Header().Set("Retry-After", strconv.Itoa(int(qf.RetryAfter.Seconds())))
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		w.Header().Set(DrainingHeader, "1")
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		// Client disconnected; the status code is for the log only.
		httpError(w, 499, err)
	case errors.Is(err, media.ErrBitstream):
		httpError(w, http.StatusBadRequest, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

// writeResult sends a successful result body. Callers set any
// path-specific headers (ETag, X-Cache, X-Job-Preempts) first.
func (s *Server) writeResult(w http.ResponseWriter, res Result) {
	for k, v := range res.Meta {
		w.Header().Set(k, v)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(res.Body)))
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(res.Body)
	s.met.BytesOut.Add(uint64(n))
}

// submitAndWait is the uncached tail of a media endpoint. It is the
// sole owner of the result body here (no cache copy, no singleflight
// sharing), so decode bodies go back to the response-buffer pool after
// the write — the cached tail must never do this, see bufpool.go.
func (s *Server) submitAndWait(w http.ResponseWriter, r *http.Request, j *Job) {
	res, err := s.runJob(j)
	if err != nil {
		writeJobError(w, err)
		return
	}
	w.Header().Set("X-Cache", CacheBypass.String())
	w.Header().Set("X-Job-Preempts", strconv.Itoa(j.Preempts()))
	s.writeResult(w, res)
	if j.Kind == KindDecode {
		respBufs.Put(res.Body)
	}
}

// serveCached is the cached tail: revalidate against the content
// address, then serve from the cache, a collapsed flight, or a fresh
// decode as leader. The prebuilt job j runs only if this request ends
// up leading its key's flight.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, ctx context.Context, tenant string, key CacheKey, j *Job) {
	start := time.Now()
	if inm := r.Header.Get("If-None-Match"); inm != "" && ETagMatches(inm, key) {
		// The ETag is the content address, so a match proves the client
		// already holds the exact bytes — no cache entry or decode needed.
		s.cache.recordNotModified(tenant)
		w.Header().Set("ETag", key.ETag())
		w.Header().Set("Cache-Control", s.cacheControl())
		w.Header().Set("X-Cache", CacheRevalidated.String())
		w.WriteHeader(http.StatusNotModified)
		return
	}
	res, release, outcome, err := s.cache.Fetch(ctx, key, tenant, func() (Result, error) {
		return s.runJob(j)
	})
	if err != nil {
		writeJobError(w, err)
		return
	}
	defer release()
	// Request wall time, so the histograms measure what the client saw.
	if outcome == CacheHit {
		s.cache.hitLat.Observe(time.Since(start))
	} else {
		// Collapsed followers waited on a real decode; their latency
		// belongs to the miss path so the hit histogram stays honest.
		s.cache.missLat.Observe(time.Since(start))
	}
	w.Header().Set("ETag", key.ETag())
	w.Header().Set("Cache-Control", s.cacheControl())
	w.Header().Set("X-Cache", outcome.String())
	if outcome == CacheMiss {
		w.Header().Set("X-Job-Preempts", strconv.Itoa(j.Preempts()))
	}
	s.writeResult(w, res)
}

// cacheControl renders the freshness window the cached tail advertises
// to downstream tiers (the gateway L1 keys its revalidation cadence off
// this; it may shorten the window but never extends it).
func (s *Server) cacheControl() string {
	return "max-age=" + strconv.Itoa(int(s.cfg.CacheMaxAge/time.Second))
}

// dispatch routes a built job through the cached or uncached tail
// according to the tenant's cache mode.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, ctx context.Context, tenant string, key CacheKey, j *Job) {
	if s.cache != nil && s.sched.CacheEnabledFor(tenant) && s.sched.Running() {
		s.serveCached(w, r, ctx, tenant, key, j)
		return
	}
	s.submitAndWait(w, r, j)
}

// handleDecode serves POST /v1/decode: body is an ECL1 bitstream, the
// response is the concatenated raw display-order luma planes.
func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	body, err := s.readBody(w, r)
	if err != nil {
		httpError(w, BodyStatus(err), err)
		return
	}
	defer reqBufs.Put(body)
	tenant := tenantOf(r)
	j, err := NewDecodeJob(ctx, tenant, body, s.pool, 1)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.dispatch(w, r, ctx, tenant, DecodeKey(body), j)
}

// EncodeConfigFromQuery parses the encode query parameters into a codec
// config. Unset parameters fall back to the codec defaults for the
// given size. Exported because the gateway tier must derive the exact
// same canonical config (and therefore the same content-address routing
// key) that the backend will cache under.
func EncodeConfigFromQuery(q url.Values) (media.CodecConfig, error) {
	geti := func(key string, def int) (int, error) {
		v := q.Get(key)
		if v == "" {
			return def, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("serve: bad %s=%q", key, v)
		}
		return n, nil
	}
	w, err := geti("w", 0)
	if err != nil {
		return media.CodecConfig{}, err
	}
	h, err := geti("h", 0)
	if err != nil {
		return media.CodecConfig{}, err
	}
	if w <= 0 || h <= 0 {
		return media.CodecConfig{}, fmt.Errorf("serve: encode requires w and h query parameters")
	}
	cfg := media.DefaultCodec(w, h)
	if cfg.Q, err = geti("q", cfg.Q); err != nil {
		return media.CodecConfig{}, err
	}
	if cfg.GOPN, err = geti("gopn", cfg.GOPN); err != nil {
		return media.CodecConfig{}, err
	}
	if cfg.GOPM, err = geti("gopm", cfg.GOPM); err != nil {
		return media.CodecConfig{}, err
	}
	if cfg.SearchRange, err = geti("search", cfg.SearchRange); err != nil {
		return media.CodecConfig{}, err
	}
	switch q.Get("halfpel") {
	case "", "0", "false":
	case "1", "true":
		cfg.HalfPel = true
	default:
		return media.CodecConfig{}, fmt.Errorf("serve: bad halfpel=%q", q.Get("halfpel"))
	}
	return cfg, nil
}

// TranscodeQFromQuery parses transcode's required q parameter, the
// target quantizer. Exported for the same reason as
// EncodeConfigFromQuery: the gateway's routing key must be the one the
// backend caches under.
func TranscodeQFromQuery(q url.Values) (int, error) {
	v := q.Get("q")
	if v == "" {
		return 0, fmt.Errorf("serve: transcode requires the q query parameter")
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("serve: bad q=%q", v)
	}
	return n, nil
}

// handleEncode serves POST /v1/encode?w=&h=[&q=&gopn=&gopm=&search=&halfpel=]:
// body is frames×w×h bytes of raw luma, the response is an ECL1 bitstream.
func (s *Server) handleEncode(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	cfg, err := EncodeConfigFromQuery(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		httpError(w, BodyStatus(err), err)
		return
	}
	defer reqBufs.Put(body)
	tenant := tenantOf(r)
	j, err := NewEncodeJob(ctx, tenant, cfg, body, s.pool)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.dispatch(w, r, ctx, tenant, EncodeKey(cfg, body), j)
}

// handleTranscode serves POST /v1/transcode?q=: body is an ECL1
// bitstream, the response is the same sequence re-encoded at quantizer q.
func (s *Server) handleTranscode(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	q, err := TranscodeQFromQuery(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		httpError(w, BodyStatus(err), err)
		return
	}
	defer reqBufs.Put(body)
	tenant := tenantOf(r)
	j, err := NewTranscodeJobSegmented(ctx, tenant, body, q, s.pool, 1, 1, s.cfg.Workers, s.met)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.dispatch(w, r, ctx, tenant, TranscodeKey(q, body), j)
}

// handleHealthz reports liveness: 200 as long as the process can answer
// at all, even while draining. Restart-or-not decisions key off this;
// routing decisions key off /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintf(w, "alive (%s)\n", s.sched.StateString())
}

// handleReadyz reports readiness: 200 while the scheduler admits work,
// 503 with the X-Eclipse-Draining marker once Drain begins — so a
// gateway stops routing here before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state := s.sched.StateString()
	if state != "running" {
		w.Header().Set(DrainingHeader, "1")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, state)
}

// varz assembles the JSON status document.
func (s *Server) varz() Snapshot {
	var cs *CacheSnapshot
	if s.cache != nil {
		snap := s.cache.Snapshot()
		cs = &snap
	}
	return Snapshot{
		Cache:       cs,
		State:       s.sched.StateString(),
		UptimeSec:   time.Since(s.met.Start).Seconds(),
		Workers:     s.cfg.Workers,
		BaseSliceMs: metrics.Ms(s.cfg.BaseSlice),
		Admitted:    s.sched.Admitted(),
		Rejects:     s.met.Rejects.Load(),
		Preemptions: s.met.Preemptions.Load(),
		BytesIn:     s.met.BytesIn.Load(),
		BytesOut:    s.met.BytesOut.Load(),
		Kinds:       s.met.kindSnapshots(),
		Tenants:     s.sched.SnapshotTenants(),
		PooledFrame: s.pool.Retained(),

		XcodePeakFrames:  s.met.XcodePeakFrames.Load(),
		XcodeSegJobs:     s.met.XcodeSegJobs.Load(),
		XcodeSegments:    s.met.XcodeSegments.Load(),
		XcodeStitchBytes: s.met.XcodeStitchBytes.Load(),
		XcodeSegSkewMs:   float64(s.met.XcodeSegSkewNs.Load()) / 1e6,
	}
}

// handleVarz serves the JSON status document.
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.varz())
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.WritePrometheus(w, s.sched, s.pool.Retained(), s.cache)
}
