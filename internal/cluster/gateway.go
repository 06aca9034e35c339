package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"eclipse/internal/serve"
	"eclipse/internal/slab"
)

// Config parameterizes the gateway.
type Config struct {
	// Backends lists the eclipse-serve instances ("host:port" or full
	// URLs). Membership is static; routability is dynamic (health).
	Backends []string

	// ProbeInterval is the active health-check period per backend.
	// Default 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe. Default 1s.
	ProbeTimeout time.Duration
	// Rise is the consecutive successful probes required to admit a
	// backend into the routable set (also after ejection or restart).
	// Default 2.
	Rise int
	// Fall is the consecutive failed probes that remove an Up backend.
	// Default 2.
	Fall int
	// PassiveFall is the consecutive proxied transport failures that
	// eject a backend without waiting for the prober. Default 3.
	PassiveFall int

	// MaxRetries bounds additional attempts after a safe failure
	// (connect error, 429/503 pushback). Default 2.
	MaxRetries int
	// RetryBase is the first retry's backoff; it doubles per retry with
	// ±50% jitter, capped at RetryMax. Defaults 10ms / 250ms.
	RetryBase time.Duration
	RetryMax  time.Duration

	// MaxBodyBytes caps client request bodies. Default 64 MiB.
	MaxBodyBytes int64

	// L1Bytes is the byte budget of the gateway's L1 result cache — the
	// near tier of the L1/L2 hierarchy whose far tier is the backends'
	// content-addressed caches. Zero or negative disables the L1 (the
	// default for library users; cmd/eclipse-gateway enables it).
	L1Bytes int64
	// L1MaxObject caps how much of an upstream response body the proxy
	// will buffer. Bodies at or under the cap are fully buffered (and
	// L1-cacheable); larger bodies stream through without buffering.
	// This bound applies whether or not the L1 is enabled — it is the
	// gateway's response-side memory ceiling. Default 8 MiB.
	L1MaxObject int64

	// Transport overrides the upstream round tripper (tests).
	Transport http.RoundTripper
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.Rise <= 0 {
		c.Rise = 2
	}
	if c.Fall <= 0 {
		c.Fall = 2
	}
	if c.PassiveFall <= 0 {
		c.PassiveFall = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.L1MaxObject <= 0 {
		c.L1MaxObject = 8 << 20
	}
	return c
}

// Gateway routes client requests across the backend fleet. One Gateway
// owns the health probers, the rendezvous ring, and the metrics
// registry; its Handler is the HTTP surface.
type Gateway struct {
	cfg      Config
	backends []*Backend
	ring     ring
	met      *Metrics
	l1       *l1Cache // nil when Config.L1Bytes <= 0
	client   *http.Client
	mux      *http.ServeMux
	bufs     slab.Pool // request and response bodies (proxy.go)

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeWG     sync.WaitGroup
	started     bool
}

// New builds a gateway over the configured backends. Backends start
// Down; call Start to launch the probers that admit them.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	g := &Gateway{cfg: cfg, met: NewMetrics(), mux: http.NewServeMux()}
	seen := map[string]bool{}
	for _, addr := range cfg.Backends {
		b, err := newBackend(addr)
		if err != nil {
			return nil, err
		}
		if seen[b.name] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", b.name)
		}
		seen[b.name] = true
		g.backends = append(g.backends, b)
	}
	g.ring = ring{backends: g.backends}
	if cfg.L1Bytes > 0 {
		g.l1 = newL1Cache(cfg.L1Bytes, g.met)
	}
	rt := cfg.Transport
	if rt == nil {
		rt = &http.Transport{MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second, DialContext: g.dialUpstream}
	}
	g.client = &http.Client{Transport: rt}
	g.probeCtx, g.probeCancel = context.WithCancel(context.Background())

	for _, k := range serve.Kinds {
		g.mux.HandleFunc("POST "+k.Path(), g.handleMedia(k))
	}
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /varz", g.handleVarz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g, nil
}

// Handler returns the gateway's HTTP handler tree.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Metrics exposes the registry for tests and the bench driver.
func (g *Gateway) Metrics() *Metrics { return g.met }

// Backends exposes the backend table for tests and the bench driver.
func (g *Gateway) Backends() []*Backend { return g.backends }

// Start launches one health prober per backend.
func (g *Gateway) Start() {
	if g.started {
		return
	}
	g.started = true
	for _, b := range g.backends {
		g.probeWG.Add(1)
		go g.probeLoop(b)
	}
}

// Stop cancels the probers and waits for them to exit. The request path
// keeps working (with frozen health state) until the caller tears the
// HTTP server down.
func (g *Gateway) Stop() {
	g.probeCancel()
	g.probeWG.Wait()
}

// WaitReady blocks until at least min backends are routable, polling at
// probe cadence, or until ctx expires.
func (g *Gateway) WaitReady(ctx context.Context, min int) error {
	tick := time.NewTicker(g.cfg.ProbeInterval / 4)
	defer tick.Stop()
	for {
		if g.ring.routable() >= min {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: %d/%d backends routable: %w", g.ring.routable(), min, ctx.Err())
		case <-tick.C:
		}
	}
}

// setState moves a backend to a new state, counting ring churn and the
// transition-specific counters. Safe from any goroutine.
func (g *Gateway) setState(b *Backend, to BackendState) {
	for {
		cur := b.state.Load()
		if BackendState(cur) == to {
			return
		}
		if b.state.CompareAndSwap(cur, int32(to)) {
			b.epoch.Add(1)
			g.met.RingChurn.Add(1)
			if to == StateDraining {
				b.drains.Add(1)
			}
			return
		}
	}
}

// handleHealthz is the gateway's own liveness probe.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "alive")
}

// handleReadyz reports whether the gateway can do useful work: 200 when
// at least one backend is routable.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	n := g.ring.routable()
	if n == 0 {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "%d/%d backends routable\n", n, len(g.backends))
}

// handleVarz serves the JSON status document.
func (g *Gateway) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(g.varz())
}

// handleMetrics serves the Prometheus text exposition.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.WritePrometheus(w)
}
