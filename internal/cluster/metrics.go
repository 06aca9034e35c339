package cluster

import (
	"io"
	"sync/atomic"
	"time"

	"eclipse/internal/metrics"
	"eclipse/internal/serve"
)

// nKinds sizes the per-kind arrays from the backends' own kind list.
const nKinds = len(serve.Kinds)

// Metrics is the gateway's counter/histogram registry. Everything is
// atomic; the request path never takes a lock here.
type Metrics struct {
	Start time.Time

	Requests [nKinds]atomic.Uint64 // client requests by kind
	Errors   [nKinds]atomic.Uint64 // requests that ended non-2xx/3xx
	// Latency is end-to-end gateway latency of proxied exchanges,
	// retry backoffs included.
	Latency [nKinds]metrics.Hist
	Hedges  [nKinds]atomic.Uint64 // always zero (no hedging); kept because benchmark/wl_gateway.go reads it

	Retries     atomic.Uint64 // retry attempts launched (backoff path)
	RingChurn   atomic.Uint64 // backend state transitions (routable-set edits)
	NoBackend   atomic.Uint64 // requests refused: no routable backend
	MidStream   atomic.Uint64 // upstream died after headers: 502, no partial body
	BytesIn     atomic.Uint64
	BytesOut    atomic.Uint64
	Passthrough atomic.Uint64 // 429/503 pushback responses relayed verbatim

	// L1 edge cache (cache.go). L1HitLat is a separate histogram so
	// sub-millisecond hits never enter Latency.
	L1Hits          atomic.Uint64 // served from a resident entry
	L1Misses        atomic.Uint64 // no resident entry at lookup
	L1Revalidations atomic.Uint64 // always zero (entries are immutable); kept because benchmark/wl_gateway.go reads it
	L1ClientNotMod  atomic.Uint64 // client If-None-Match answered 304 locally
	L1Collapsed     atomic.Uint64 // followers served off another request's flight
	L1Fills         atomic.Uint64 // bodies copied into the L1
	L1Evictions     atomic.Uint64 // entries dropped for byte pressure
	L1TooLarge      atomic.Uint64 // fills skipped: entry exceeds the cache budget
	L1HitLat        metrics.Hist  // L1 hit latency (kept out of Latency)

	StreamThrough   atomic.Uint64 // over-cap responses streamed without buffering
	StreamTruncated atomic.Uint64 // stream relays that died mid-copy (connection severed)
}

// NewMetrics returns a zeroed registry stamped with the start time.
func NewMetrics() *Metrics { return &Metrics{Start: time.Now()} }

// KindSnapshot is one kind's row in /varz.
type KindSnapshot struct {
	Kind     string  `json:"kind"`
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
}

// L1Snapshot is the /varz view of the gateway's edge cache.
type L1Snapshot struct {
	Enabled       bool    `json:"enabled"`
	ResidentBytes int64   `json:"resident_bytes"`
	Entries       int     `json:"entries"`
	BudgetBytes   int64   `json:"budget_bytes"`
	Hits          uint64  `json:"hits_total"`
	Misses        uint64  `json:"misses_total"`
	ClientNotMod  uint64  `json:"client_not_modified_total"`
	Collapsed     uint64  `json:"collapsed_total"`
	Fills         uint64  `json:"fills_total"`
	Evictions     uint64  `json:"evictions_total"`
	TooLarge      uint64  `json:"too_large_total"`
	HitP50Ms      float64 `json:"hit_p50_ms"`
	HitP99Ms      float64 `json:"hit_p99_ms"`
}

// Snapshot is the gateway /varz document.
type Snapshot struct {
	UptimeSec       float64           `json:"uptime_sec"`
	Routable        int               `json:"routable_backends"`
	Backends        []BackendSnapshot `json:"backends"`
	Kinds           []KindSnapshot    `json:"kinds"`
	L1              L1Snapshot        `json:"l1"`
	RingChurn       uint64            `json:"ring_churn_total"`
	Retries         uint64            `json:"retries_total"`
	NoBackend       uint64            `json:"no_backend_total"`
	MidStream       uint64            `json:"mid_stream_502_total"`
	Passthrough     uint64            `json:"pushback_passthrough_total"`
	StreamThrough   uint64            `json:"stream_through_total"`
	StreamTruncated uint64            `json:"stream_truncated_total"`
	BytesIn         uint64            `json:"bytes_in_total"`
	BytesOut        uint64            `json:"bytes_out_total"`
}

// WritePrometheus renders the gateway metric families in the Prometheus
// text exposition format: one internal/metrics call per family, in
// exposition order.
func (g *Gateway) WritePrometheus(w io.Writer) {
	const ns = "eclipse_gateway_"
	m := g.met
	kinds := serve.Kinds[:]
	byKind := func(a *[nKinds]atomic.Uint64) func(serve.Kind) (string, uint64) {
		return func(k serve.Kind) (string, uint64) { return k.String(), a[k].Load() }
	}
	metrics.Gauge(w, ns+"uptime_seconds", "Time since gateway start.", time.Since(m.Start).Seconds())
	metrics.CounterVec(w, ns+"requests_total", "Client requests by kind.", "kind", kinds, byKind(&m.Requests))
	metrics.CounterVec(w, ns+"errors_total", "Requests that ended non-2xx/3xx, by kind.", "kind", kinds, byKind(&m.Errors))

	for _, fam := range []struct {
		name, help string
		val        *atomic.Uint64
	}{
		{"retries_total", "Retry attempts launched after safe failures.", &m.Retries},
		{"ring_churn_total", "Backend state transitions (edits to the routable set).", &m.RingChurn},
		{"no_backend_total", "Requests refused because no backend was routable.", &m.NoBackend},
		{"mid_stream_errors_total", "Upstream connections that died after the response headers (returned as 502, never a partial body).", &m.MidStream},
		{"pushback_passthrough_total", "429/503 pushback responses relayed verbatim after retries were exhausted.", &m.Passthrough},
		{"stream_through_total", "Over-cap upstream responses streamed to the client without buffering.", &m.StreamThrough},
		{"stream_truncated_total", "Streamed relays that died mid-copy (client connection severed).", &m.StreamTruncated},
		{"bytes_in_total", "Request payload bytes accepted.", &m.BytesIn},
		{"bytes_out_total", "Response payload bytes sent.", &m.BytesOut},
		{"l1_hits_total", "Requests served from a resident L1 entry.", &m.L1Hits},
		{"l1_misses_total", "Requests with no resident L1 entry at lookup.", &m.L1Misses},
		{"l1_client_not_modified_total", "Client If-None-Match requests answered 304 at the gateway.", &m.L1ClientNotMod},
		{"l1_collapsed_total", "Requests served off another request's in-flight fill.", &m.L1Collapsed},
		{"l1_fills_total", "Response bodies copied into the L1.", &m.L1Fills},
		{"l1_evictions_total", "L1 entries evicted for byte pressure.", &m.L1Evictions},
		{"l1_too_large_total", "L1 fills skipped because the entry exceeds the cache budget.", &m.L1TooLarge},
	} {
		metrics.Counter(w, ns+fam.name, fam.help, fam.val.Load())
	}
	var l1Resident int64
	if g.l1 != nil {
		l1Resident, _ = g.l1.Resident()
	}
	metrics.Gauge(w, ns+"l1_resident_bytes", "Bytes currently resident in the L1 edge cache.", l1Resident)

	metrics.Header(w, ns+"backend_state", "Backend routability (1 = in the named state).", "gauge")
	for _, b := range g.backends {
		st := b.State()
		for _, s := range []BackendState{StateDown, StateUp, StateDraining} {
			v := 0
			if st == s {
				v = 1
			}
			metrics.Sample(w, ns+"backend_state", v, "backend", b.name, "state", s.String())
		}
	}
	for _, fam := range []struct {
		name, help string
		val        func(*Backend) uint64
	}{
		{"backend_requests_total", "Proxied attempts per backend.", func(b *Backend) uint64 { return b.requests.Load() }},
		{"backend_errors_total", "Failed attempts per backend (transport errors and 5xx).", func(b *Backend) uint64 { return b.errors.Load() }},
		{"backend_ejections_total", "Passive ejections (consecutive transport failures).", func(b *Backend) uint64 { return b.ejections.Load() }},
		{"backend_drains_total", "Transitions into the draining state.", func(b *Backend) uint64 { return b.drains.Load() }},
		{"backend_probe_failures_total", "Active health probes that failed.", func(b *Backend) uint64 { return b.probeFail.Load() }},
	} {
		metrics.CounterVec(w, ns+fam.name, fam.help, "backend", g.backends,
			func(b *Backend) (string, uint64) { return b.name, fam.val(b) })
	}

	metrics.HistogramVec(w, ns+"latency_seconds", "End-to-end request latency through the gateway (includes retry backoffs).", "kind", kinds,
		func(k serve.Kind) (string, *metrics.Hist) { return k.String(), &m.Latency[k] })
	metrics.Histogram(w, ns+"l1_hit_latency_seconds", "L1 hit latency (excluded from the proxied latency histogram).", &m.L1HitLat)
}

// varz assembles the JSON status document.
func (g *Gateway) varz() Snapshot {
	m := g.met
	ks := make([]KindSnapshot, 0, nKinds)
	for _, k := range serve.Kinds {
		ks = append(ks, KindSnapshot{
			Kind:     k.String(),
			Requests: m.Requests[k].Load(),
			Errors:   m.Errors[k].Load(),
			P50Ms:    metrics.Ms(m.Latency[k].Quantile(0.50)),
			P99Ms:    metrics.Ms(m.Latency[k].Quantile(0.99)),
			MeanMs:   metrics.Ms(m.Latency[k].Mean()),
		})
	}
	bs := make([]BackendSnapshot, 0, len(g.backends))
	for _, b := range g.backends {
		bs = append(bs, b.Snapshot())
	}
	l1 := L1Snapshot{
		Hits:         m.L1Hits.Load(),
		Misses:       m.L1Misses.Load(),
		ClientNotMod: m.L1ClientNotMod.Load(),
		Collapsed:    m.L1Collapsed.Load(),
		Fills:        m.L1Fills.Load(),
		Evictions:    m.L1Evictions.Load(),
		TooLarge:     m.L1TooLarge.Load(),
		HitP50Ms:     metrics.Ms(m.L1HitLat.Quantile(0.50)),
		HitP99Ms:     metrics.Ms(m.L1HitLat.Quantile(0.99)),
	}
	if g.l1 != nil {
		l1.Enabled = true
		l1.ResidentBytes, l1.Entries = g.l1.Resident()
		l1.BudgetBytes = g.l1.Budget()
	}
	return Snapshot{
		UptimeSec:       time.Since(m.Start).Seconds(),
		Routable:        g.ring.routable(),
		Backends:        bs,
		Kinds:           ks,
		L1:              l1,
		RingChurn:       m.RingChurn.Load(),
		Retries:         m.Retries.Load(),
		NoBackend:       m.NoBackend.Load(),
		MidStream:       m.MidStream.Load(),
		Passthrough:     m.Passthrough.Load(),
		StreamThrough:   m.StreamThrough.Load(),
		StreamTruncated: m.StreamTruncated.Load(),
		BytesIn:         m.BytesIn.Load(),
		BytesOut:        m.BytesOut.Load(),
	}
}
