// Command eclipse-serve runs the media-serving subsystem: an HTTP
// server that admits decode / encode / transcode jobs into bounded
// per-tenant queues and executes them as gated task groups (goroutines
// that park at a frame checkpoint while the scheduler holds their job's
// gate closed) under the Eclipse-style weighted-round-robin scheduler
// (see internal/serve and DESIGN.md §"Serving"). It links the codec and
// the serving packages, not the simulator or the Kahn executor: the
// paper's six-task decode network runs in eclipse-sim / eclipse-bench,
// where each stage is its own engine.
//
// Endpoints:
//
//	POST /v1/decode              ECL1 bitstream in, raw luma planes out
//	POST /v1/encode?w=&h=[&q=..] raw luma planes in, ECL1 bitstream out
//	POST /v1/transcode?q=        ECL1 in, re-encoded ECL1 out
//	GET  /healthz                liveness (200 while the process is up)
//	GET  /readyz                 readiness (503 + X-Eclipse-Draining while draining)
//	GET  /varz                   JSON status document
//	GET  /metrics                Prometheus text exposition
//
// Requests carry an optional X-Tenant header (scheduling identity,
// default "default") and an optional X-Timeout-Ms deadline that is
// enforced end-to-end: a running job observes it at its next frame
// checkpoint.
//
// Identical requests are served from a content-addressed result cache
// with singleflight collapse (-cache-bytes budget, per-tenant on/off
// via the fifth -tenant field); responses carry an X-Cache outcome and
// a content-address ETag honoring If-None-Match (see DESIGN.md §8).
//
// SIGINT/SIGTERM starts a graceful drain: admission stops, in-flight
// and queued jobs complete (bounded by -drain), a serving + cache
// report is printed to stderr, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eclipse/internal/serve"
)

// tenantFlags collects repeated -tenant
// name:weight[:queuecap[:decodeworkers[:cache[:segments]]]] flags.
type tenantFlags []serve.TenantConfig

func (t *tenantFlags) String() string { return fmt.Sprintf("%v", []serve.TenantConfig(*t)) }

func (t *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 6 {
		return fmt.Errorf("want name:weight[:queuecap[:decodeworkers[:cache[:segments]]]], got %q", v)
	}
	tc := serve.TenantConfig{Name: parts[0]}
	w, err := strconv.Atoi(parts[1])
	if err != nil || w < 1 {
		return fmt.Errorf("bad weight in %q", v)
	}
	tc.Weight = w
	if len(parts) >= 3 {
		c, err := strconv.Atoi(parts[2])
		if err != nil || c < 1 {
			return fmt.Errorf("bad queue cap in %q", v)
		}
		tc.QueueCap = c
	}
	if len(parts) >= 4 {
		dw, err := strconv.Atoi(parts[3])
		if err != nil || dw < 1 {
			return fmt.Errorf("bad decode workers in %q", v)
		}
		tc.DecodeWorkers = dw
	}
	if len(parts) >= 5 {
		switch parts[4] {
		case "on", "1":
			tc.Cache = serve.CacheOn
		case "off", "0":
			tc.Cache = serve.CacheOff
		default:
			return fmt.Errorf("bad cache mode %q in %q (want on/off)", parts[4], v)
		}
	}
	if len(parts) == 6 {
		xs, err := strconv.Atoi(parts[5])
		if err != nil || xs < 1 {
			return fmt.Errorf("bad transcode segments in %q", v)
		}
		tc.TranscodeSegments = xs
	}
	*t = append(*t, tc)
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 2, "executor pool size (the coprocessor count)")
		slice    = flag.Duration("slice", 5*time.Millisecond, "base scheduling slice for a weight-1 tenant")
		queueCap = flag.Int("queue-cap", 8, "default per-tenant admission bound")
		maxBody  = flag.Int64("max-body", 64<<20, "request body cap in bytes")
		poolCap  = flag.Int("frame-pool", 256, "frames retained by the shared pool")
		decodeW  = flag.Int("decode-workers", 1, "default per-tenant decode width (1 = serial decoder, >1 = that many reconstruction workers beside the entropy parse; same output)")
		encodeW  = flag.Int("encode-workers", 0, "per-job encode analysis fan-out (0 = NumCPU)")
		cacheB   = flag.Int64("cache-bytes", 256<<20, "result cache byte budget (0 disables)")
		cacheAge = flag.Duration("cache-max-age", 60*time.Second, "freshness window advertised via Cache-Control max-age (bounds gateway L1 TTLs)")
		xcodeSeg = flag.Int("transcode-segments", 0, "segment fan-out for transcode jobs over closed-GOP cuts (1 = one span, 0 = min(NumCPU, 8))")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		tenants  tenantFlags
	)
	flag.Var(&tenants, "tenant", "declare a tenant as name:weight[:queuecap[:decodeworkers[:cache[:segments]]]] (repeatable; cache = on/off)")
	flag.Parse()

	cacheBytes := *cacheB
	if cacheBytes <= 0 {
		cacheBytes = -1 // Config treats 0 as "use the default"; the flag's 0 means off
	}
	srv := serve.New(serve.Config{
		Workers:           *workers,
		BaseSlice:         *slice,
		QueueCap:          *queueCap,
		MaxBodyBytes:      *maxBody,
		FramePoolCap:      *poolCap,
		DecodeWorkers:     *decodeW,
		EncodeWorkers:     *encodeW,
		CacheBytes:        cacheBytes,
		CacheMaxAge:       *cacheAge,
		TranscodeSegments: *xcodeSeg,
		Tenants:           tenants,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("eclipse-serve listening on %s (%d workers, %s base slice)", *addr, *workers, *slice)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("eclipse-serve: %v", err)
	case s := <-sig:
		log.Printf("eclipse-serve: %v — draining (budget %s)", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("eclipse-serve: drain incomplete: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("eclipse-serve: http shutdown: %v", err)
	}
	srv.WriteReport(os.Stderr)
	log.Printf("eclipse-serve: bye")
}
