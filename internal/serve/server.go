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
	"strconv"
	"time"

	"eclipse/internal/media"
	"eclipse/internal/metrics"
	"eclipse/internal/slab"
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
	for _, k := range Kinds {
		s.mux.HandleFunc("POST "+k.Path(), s.handleMedia(k))
	}
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

// Accept is the media front end both tiers serve a request through. It
// checks r as a request of kind in one order: the optional X-Timeout-Ms
// deadline (a positive count of milliseconds), the query's parameters
// (ParseParams), then the body, read into a slab of pool under limit
// (slab.Pool.ReadCapped: sized once from a Content-Length the cap admits,
// grown through the pool otherwise). A request that fails a check is
// answered here: 400, or 413 with "Connection: close" for a body past
// limit, so its unread rest is never parsed as a request. An accepted one
// goes to serve with the request's context, tightened by the deadline;
// serve owns body and returns it to pool.
func Accept(w http.ResponseWriter, r *http.Request, kind Kind, pool *slab.Pool, limit int64,
	serve func(ctx context.Context, p Params, body []byte)) {
	ctx := r.Context()
	if v := r.Header.Get("X-Timeout-Ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad X-Timeout-Ms %q", v))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	p, err := ParseParams(kind, r.URL.RawQuery)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	body, over, err := pool.ReadCapped(r.Body, r.ContentLength, limit)
	switch {
	case over:
		pool.Put(body)
		w.Header().Set("Connection", "close")
		httpError(w, http.StatusRequestEntityTooLarge, &http.MaxBytesError{Limit: limit})
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
	default:
		serve(ctx, p, body)
	}
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
		w.Header().Set("Cache-Control", ImmutableCacheControl)
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
	w.Header().Set("Cache-Control", ImmutableCacheControl)
	w.Header().Set("X-Cache", outcome.String())
	if outcome == CacheMiss {
		w.Header().Set("X-Job-Preempts", strconv.Itoa(j.Preempts()))
	}
	s.writeResult(w, res)
}

// dispatch routes a built job through the cached or uncached tail
// according to the tenant's cache mode (CacheEnabledFor, false while the
// scheduler drains).
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, ctx context.Context, tenant string, key CacheKey, j *Job) {
	if s.cache != nil && s.sched.CacheEnabledFor(tenant) {
		s.serveCached(w, r, ctx, tenant, key, j)
		return
	}
	s.submitAndWait(w, r, j)
}

// handleMedia serves POST kind.Path(). The body is the kind's payload
// (an ECL1 bitstream for decode and transcode, frames×w×h bytes of raw
// luma for encode) and the response its output (raw display-order luma
// planes for decode, an ECL1 bitstream otherwise). The query string
// carries the kind's parameters (ParseParams). The body is a reqBufs slab,
// returned once dispatch has returned (bufpool.go).
func (s *Server) handleMedia(kind Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		Accept(w, r, kind, &reqBufs, s.cfg.MaxBodyBytes, func(ctx context.Context, p Params, body []byte) {
			defer reqBufs.Put(body)
			s.met.BytesIn.Add(uint64(len(body)))
			tenant := tenantOf(r)
			j, err := s.newJob(ctx, tenant, p, body)
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			s.dispatch(w, r, ctx, tenant, p.Key(body), j)
		})
	}
}

// newJob builds the job that serves a media request.
func (s *Server) newJob(ctx context.Context, tenant string, p Params, body []byte) (*Job, error) {
	switch p.Kind {
	case KindEncode:
		return NewEncodeJob(ctx, tenant, p.enc, body, s.pool)
	case KindTranscode:
		return NewTranscodeJobSegmented(ctx, tenant, body, p.q, s.pool, 1, 1, s.cfg.Workers, s.met)
	}
	return NewDecodeJob(ctx, tenant, body, s.pool, 1)
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
	s.WriteVarz(w)
}

// WriteVarz writes the JSON status document /varz serves: per-kind
// traffic and latency, the tenant table and the result cache.
func (s *Server) WriteVarz(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.varz())
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.WritePrometheus(w, s.sched, s.pool.Retained(), s.cache)
}
