package serve

import (
	"io"
	"sort"
	"sync/atomic"
	"time"

	"eclipse/internal/metrics"
)

// Metrics holds the subsystem's global counters: per-kind request /
// error counts and latency histograms, admission rejects, scheduler
// preemptions, and byte totals. Everything is atomic — the hot path
// (Submit, finish) never takes a metrics lock.
type Metrics struct {
	Start       time.Time
	Requests    [nKinds]atomic.Uint64
	Errors      [nKinds]atomic.Uint64
	Latency     [nKinds]metrics.Hist
	Rejects     atomic.Uint64
	Preemptions atomic.Uint64
	BytesIn     atomic.Uint64
	BytesOut    atomic.Uint64

	// XcodePeakFrames is the high-water mark of frames simultaneously in
	// flight inside any single transcode job — the observable form of the
	// bounded-memory claim (spans × O(GOP M + reconstruction window), not
	// O(frames)).
	XcodePeakFrames atomic.Int64
	// Nothing increments the two stall counters: a span unit pushes each
	// frame straight into its encoder, so neither side ever waits on the
	// other. They remain only because the benchmark rig still reads them.
	XcodePushStalls atomic.Uint64
	XcodePullStalls atomic.Uint64

	// Segment-parallel transcode instrumentation. XcodeSegJobs counts
	// transcode jobs that actually ran segmented (≥2 closed-GOP
	// segments); XcodeSegments counts the segments they ran;
	// XcodeStitchBytes the bytes spliced by the bitstream stitcher.
	// XcodeSegSkewNs is the high-water mark of the per-job wall-clock
	// spread between its slowest and fastest segment — persistent skew
	// means the closed-GOP cuts are partitioning the clip unevenly.
	XcodeSegJobs     atomic.Uint64
	XcodeSegments    atomic.Uint64
	XcodeStitchBytes atomic.Uint64
	XcodeSegSkewNs   atomic.Int64
}

// storeMax folds v into a high-water-mark gauge.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// NewMetrics returns a zeroed registry stamped with the start time.
func NewMetrics() *Metrics { return &Metrics{Start: time.Now()} }

// TenantSnapshot is one tenant's row in /varz and /metrics.
type TenantSnapshot struct {
	Name       string  `json:"name"`
	Weight     int     `json:"weight"`
	QueueCap   int     `json:"queue_cap"`
	CacheMode  string  `json:"cache_mode"`
	QueueDepth int     `json:"queue_depth"`
	Admitted   int     `json:"admitted"`
	Completed  uint64  `json:"completed"`
	Errors     uint64  `json:"errors"`
	Rejects    uint64  `json:"rejects"`
	Preempts   uint64  `json:"preempts"`
	ServiceSec float64 `json:"service_sec"`
	EwmaJobMs  float64 `json:"ewma_job_ms"`
}

// KindSnapshot is one job kind's latency/traffic row.
type KindSnapshot struct {
	Kind     string  `json:"kind"`
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
}

// Snapshot is the /varz document.
type Snapshot struct {
	State       string           `json:"state"`
	UptimeSec   float64          `json:"uptime_sec"`
	Workers     int              `json:"workers"`
	BaseSliceMs float64          `json:"base_slice_ms"`
	Admitted    int              `json:"admitted"`
	Rejects     uint64           `json:"rejects_total"`
	Preemptions uint64           `json:"preemptions_total"`
	BytesIn     uint64           `json:"bytes_in_total"`
	BytesOut    uint64           `json:"bytes_out_total"`
	Kinds       []KindSnapshot   `json:"kinds"`
	Tenants     []TenantSnapshot `json:"tenants"`
	PooledFrame int              `json:"frame_pool_retained"`
	Cache       *CacheSnapshot   `json:"cache,omitempty"`

	// Transcode gauges and counters (see Metrics).
	XcodePeakFrames  int64   `json:"transcode_inflight_frames_peak"`
	XcodeSegJobs     uint64  `json:"transcode_segmented_jobs_total"`
	XcodeSegments    uint64  `json:"transcode_segments_total"`
	XcodeStitchBytes uint64  `json:"transcode_stitch_bytes_total"`
	XcodeSegSkewMs   float64 `json:"transcode_segment_skew_ms_peak"`
}

// kindSnapshots collects the per-kind rows.
func (m *Metrics) kindSnapshots() []KindSnapshot {
	out := make([]KindSnapshot, 0, len(Kinds))
	for _, k := range Kinds {
		h := &m.Latency[k]
		out = append(out, KindSnapshot{
			Kind:     k.String(),
			Requests: m.Requests[k].Load(),
			Errors:   m.Errors[k].Load(),
			P50Ms:    metrics.Ms(h.Quantile(0.50)),
			P90Ms:    metrics.Ms(h.Quantile(0.90)),
			P99Ms:    metrics.Ms(h.Quantile(0.99)),
			MeanMs:   metrics.Ms(h.Mean()),
		})
	}
	return out
}

// WritePrometheus renders the Prometheus text exposition format
// (counters, gauges, and the per-kind latency histograms): one
// internal/metrics call per family, in exposition order.
func (m *Metrics) WritePrometheus(w io.Writer, sched *Scheduler, poolRetained int, cache *Cache) {
	const ns = "eclipse_serve_"
	byKind := func(a *[nKinds]atomic.Uint64) func(Kind) (string, uint64) {
		return func(k Kind) (string, uint64) { return k.String(), a[k].Load() }
	}
	metrics.Gauge(w, ns+"uptime_seconds", "Time since server start.", time.Since(m.Start).Seconds())
	metrics.CounterVec(w, ns+"requests_total", "Admitted jobs by kind.", "kind", Kinds[:], byKind(&m.Requests))
	metrics.CounterVec(w, ns+"errors_total", "Failed jobs by kind.", "kind", Kinds[:], byKind(&m.Errors))
	metrics.Counter(w, ns+"admission_rejects_total", "Jobs rejected by full tenant queues (the GetSpace-failure path).", m.Rejects.Load())
	metrics.Counter(w, ns+"preemptions_total", "Scheduling slices that ended in preemption.", m.Preemptions.Load())
	metrics.Counter(w, ns+"bytes_in_total", "Request payload bytes accepted.", m.BytesIn.Load())
	metrics.Counter(w, ns+"bytes_out_total", "Response payload bytes sent.", m.BytesOut.Load())
	metrics.Gauge(w, ns+"frame_pool_retained", "Frames held by the shared cross-request pool.", poolRetained)

	metrics.Gauge(w, ns+"transcode_inflight_frames", "Peak frames simultaneously in flight inside a single transcode job, across all its spans.", m.XcodePeakFrames.Load())
	metrics.Counter(w, ns+"transcode_segments_jobs_total", "Transcode jobs that ran segment-parallel (two or more closed-GOP segments).", m.XcodeSegJobs.Load())
	metrics.Counter(w, ns+"transcode_segments_total", "Closed-GOP segments executed by segment-parallel transcode jobs.", m.XcodeSegments.Load())
	metrics.Counter(w, ns+"transcode_segments_stitch_bytes_total", "Bytes produced by the bitstream stitcher.", m.XcodeStitchBytes.Load())
	metrics.Gauge(w, ns+"transcode_segments_skew_seconds", "Peak slowest-minus-fastest segment wall time within one segmented job.", float64(m.XcodeSegSkewNs.Load())/1e9)

	tenants := sched.SnapshotTenants()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Name < tenants[j].Name })
	type ts = TenantSnapshot
	metrics.GaugeVec(w, ns+"queue_depth", "Units (jobs, or a transcode's scan and spans) waiting in the tenant queue.", "tenant", tenants, func(t ts) (string, int) { return t.Name, t.QueueDepth })
	metrics.GaugeVec(w, ns+"tenant_admitted", "Jobs admitted and unfinished (waiting + running).", "tenant", tenants, func(t ts) (string, int) { return t.Name, t.Admitted })
	metrics.CounterVec(w, ns+"tenant_completed_total", "Jobs finished successfully.", "tenant", tenants, func(t ts) (string, uint64) { return t.Name, t.Completed })
	metrics.CounterVec(w, ns+"tenant_rejects_total", "Admission rejects per tenant.", "tenant", tenants, func(t ts) (string, uint64) { return t.Name, t.Rejects })
	metrics.CounterVec(w, ns+"tenant_preemptions_total", "Slice preemptions per tenant.", "tenant", tenants, func(t ts) (string, uint64) { return t.Name, t.Preempts })
	metrics.CounterVec(w, ns+"tenant_service_seconds_total", "Wall-clock execution time per tenant.", "tenant", tenants, func(t ts) (string, float64) { return t.Name, t.ServiceSec })

	metrics.HistogramVec(w, ns+"latency_seconds", "End-to-end job latency (admission to completion).", "kind", Kinds[:],
		func(k Kind) (string, *metrics.Hist) { return k.String(), &m.Latency[k] })

	if cache != nil {
		writeCachePrometheus(w, cache)
	}
}

// writeCachePrometheus renders the result-cache metric families.
func writeCachePrometheus(w io.Writer, cache *Cache) {
	const ns = "eclipse_serve_cache_"
	cs := cache.Snapshot()
	metrics.Gauge(w, ns+"budget_bytes", "Result cache byte budget.", cs.BudgetBytes)
	metrics.Gauge(w, ns+"resident_bytes", "Bytes held by resident cache entries.", cs.ResidentBytes)
	metrics.Gauge(w, ns+"entries", "Resident cache entries.", cs.Entries)
	metrics.Counter(w, ns+"fills_total", "Successful results copied into the cache.", cs.Fills)
	metrics.Counter(w, ns+"promotions_total", "Singleflight followers promoted to leader after a leader-specific failure.", cs.Promotions)
	metrics.Counter(w, ns+"not_modified_total", "If-None-Match revalidations answered 304.", cs.NotModified)
	metrics.Counter(w, ns+"too_large_total", "Results skipped because they exceed the cache budget.", cs.TooLarge)

	type ts = CacheTenantSnapshot
	metrics.CounterVec(w, ns+"hits_total", "Cache hits by requesting tenant.", "tenant", cs.Tenants, func(t ts) (string, uint64) { return t.Name, t.Hits })
	metrics.CounterVec(w, ns+"misses_total", "Cache misses by requesting tenant.", "tenant", cs.Tenants, func(t ts) (string, uint64) { return t.Name, t.Misses })
	metrics.CounterVec(w, ns+"collapsed_total", "Requests served by parking on another request's in-flight decode.", "tenant", cs.Tenants, func(t ts) (string, uint64) { return t.Name, t.Collapsed })
	metrics.CounterVec(w, ns+"evictions_total", "Entries evicted under byte pressure, by filling tenant.", "tenant", cs.Tenants, func(t ts) (string, uint64) { return t.Name, t.Evictions })
	metrics.GaugeVec(w, ns+"tenant_resident_bytes", "Resident bytes attributed to the filling tenant.", "tenant", cs.Tenants, func(t ts) (string, int64) { return t.Name, t.ResidentBytes })

	metrics.Histogram(w, ns+"hit_latency_seconds", "Request wall time on the hit path.", &cache.hitLat)
	metrics.Histogram(w, ns+"miss_latency_seconds", "Request wall time on the miss path.", &cache.missLat)
}
