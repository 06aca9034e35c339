// Command eclipse-serve runs the media-serving subsystem: an HTTP
// server that admits decode / encode / transcode jobs into bounded
// per-tenant queues and runs their units (goroutines that park at a frame
// checkpoint while no worker holds them) under the Eclipse-style
// weighted-round-robin scheduler (see internal/serve and DESIGN.md
// §"Serving"). -workers is the one width: at most that many units run at
// once and a transcode splits into at most that many spans, so size it
// to the host's cores. It links the codec and the serving packages, not
// the simulator or the Kahn executor: the paper's six-task decode
// network runs in eclipse-sim / eclipse-bench, where each stage is its
// own engine.
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
// via -tenant's cache key); responses carry an X-Cache outcome and a
// content-address ETag honoring If-None-Match and
// Cache-Control: immutable (see DESIGN.md §8).
//
// Tenants are declared with repeatable -tenant flags of comma-separated
// key=value pairs, for example
//
//	-tenant name=gold,weight=4,cap=16,cache=off
//
// name is required; weight (scheduling-slice multiplier), cap (admission
// bound) and cache (on/off override of the server-wide cache) default to
// the server-wide flags.
//
// SIGINT/SIGTERM starts a graceful drain: admission stops, in-flight
// and queued jobs complete (bounded by -drain), the final /varz document
// (per-kind traffic and latency, the tenant table, the result cache) is
// printed to stderr, then the process exits.
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

// tenantSyntax is the -tenant value: comma-separated key=value pairs,
// name required, every other key optional and at most once.
const tenantSyntax = "name=NAME[,weight=N][,cap=N][,cache=on|off]"

// tenantFlags collects repeated -tenant flags.
type tenantFlags []serve.TenantConfig

func (t *tenantFlags) String() string { return fmt.Sprintf("%v", []serve.TenantConfig(*t)) }

func (t *tenantFlags) Set(v string) error {
	tc, err := parseTenant(v)
	if err == nil {
		*t = append(*t, tc)
	}
	return err
}

// parseTenant parses one -tenant value. Unknown keys, repeated keys and
// the old positional name:weight:… form are errors that show the
// syntax, so a flag written for the old layout cannot silently mean
// something else.
func parseTenant(v string) (tc serve.TenantConfig, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%v (want %s)", err, tenantSyntax)
		}
	}()
	seen := map[string]bool{}
	for _, kv := range strings.Split(v, ",") {
		key, val, ok := strings.Cut(kv, "=")
		switch {
		case !ok && strings.Contains(kv, ":"):
			return tc, fmt.Errorf("the positional name:weight:… form is gone")
		case !ok:
			return tc, fmt.Errorf("%q is not key=value", kv)
		case seen[key]:
			return tc, fmt.Errorf("%s given twice", key)
		}
		seen[key] = true
		switch key {
		case "name":
			if val == "" {
				err = fmt.Errorf("empty")
			}
			tc.Name = val
		case "weight":
			tc.Weight, err = positive(val)
		case "cap":
			tc.QueueCap, err = positive(val)
		case "cache":
			switch val {
			case "on":
				tc.Cache = serve.CacheOn
			case "off":
				tc.Cache = serve.CacheOff
			default:
				err = fmt.Errorf("not on or off")
			}
		default:
			return tc, fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return tc, fmt.Errorf("bad %s=%q: %v", key, val, err)
		}
	}
	if tc.Name == "" {
		return tc, fmt.Errorf("name is required")
	}
	return tc, nil
}

// positive parses a count that must be at least 1.
func positive(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("not a positive integer")
	}
	return n, nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 2, "executor pool size (the coprocessor count)")
		slice    = flag.Duration("slice", 5*time.Millisecond, "base scheduling slice for a weight-1 tenant")
		queueCap = flag.Int("queue-cap", 8, "default per-tenant admission bound")
		maxBody  = flag.Int64("max-body", 64<<20, "request body cap in bytes")
		poolCap  = flag.Int("frame-pool", 256, "frames retained by the shared pool")
		cacheB   = flag.Int64("cache-bytes", 256<<20, "result cache byte budget (0 disables)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		tenants  tenantFlags
	)
	flag.Var(&tenants, "tenant", "declare a tenant as "+tenantSyntax+" (repeatable)")
	flag.Parse()

	cacheBytes := *cacheB
	if cacheBytes <= 0 {
		cacheBytes = -1 // Config treats 0 as "use the default"; the flag's 0 means off
	}
	srv := serve.New(serve.Config{
		Workers:      *workers,
		BaseSlice:    *slice,
		QueueCap:     *queueCap,
		MaxBodyBytes: *maxBody,
		FramePoolCap: *poolCap,
		CacheBytes:   cacheBytes,
		Tenants:      tenants,
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
	srv.WriteVarz(os.Stderr)
	log.Printf("eclipse-serve: bye")
}
