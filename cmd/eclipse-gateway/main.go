// Command eclipse-gateway fronts a fleet of eclipse-serve backends with
// the cluster tier (internal/cluster): rendezvous-hashed routing on the
// content-address cache key, active /readyz health checking with
// rise/fall thresholds, passive ejection on consecutive transport
// failures, bounded jittered retries on safe failures (connect errors
// and 429/503 pushback, whose Retry-After is relayed verbatim) with one
// upstream attempt in flight per request, and an L1 edge cache keyed on
// the same content address the ring routes on: warm hits are answered
// from gateway memory (X-Cache: l1-hit) for as long as they stay
// resident, because content-addressed results never change, and a
// same-key storm collapses to one backend round-trip.
//
// Endpoints mirror a single backend:
//
//	POST /v1/decode              routed by content address, X-Backend names the server
//	POST /v1/encode?w=&h=[&q=..]
//	POST /v1/transcode?q=
//	GET  /healthz                gateway liveness
//	GET  /readyz                 200 while >= 1 backend is routable
//	GET  /varz                   JSON status (per-backend states and counters)
//	GET  /metrics                Prometheus text exposition
//
// X-Tenant and X-Timeout-Ms pass through; the timeout budget is
// enforced at the gateway and the remaining budget is re-emitted to
// each upstream attempt.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eclipse/internal/cluster"
)

// backendFlags collects repeated -backend host:port flags.
type backendFlags []string

func (b *backendFlags) String() string { return strings.Join(*b, ",") }

func (b *backendFlags) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty backend address")
	}
	*b = append(*b, v)
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8070", "listen address")
		probeIvl  = flag.Duration("probe-interval", 500*time.Millisecond, "active /readyz probe period per backend")
		probeTO   = flag.Duration("probe-timeout", time.Second, "single probe timeout")
		rise      = flag.Int("rise", 2, "consecutive good probes to admit a backend")
		fall      = flag.Int("fall", 2, "consecutive failed probes to remove a backend")
		passFall  = flag.Int("passive-fall", 3, "consecutive proxied transport failures to eject without a probe")
		retries   = flag.Int("retries", 2, "max retry attempts after safe failures (-1 disables)")
		retryBase = flag.Duration("retry-base", 10*time.Millisecond, "first retry backoff (doubles, jittered)")
		retryMax  = flag.Duration("retry-max", 250*time.Millisecond, "retry backoff cap")
		maxBody   = flag.Int64("max-body", 64<<20, "request body cap in bytes")
		l1Bytes   = flag.Int64("l1-bytes", 256<<20, "gateway L1 edge cache byte budget (0 disables)")
		l1MaxObj  = flag.Int64("l1-max-object", 8<<20, "largest response buffered (and cached) at the gateway; bigger responses stream through")
		waitReady = flag.Duration("wait-ready", 0, "block until >= 1 backend is routable before serving (0 = don't wait)")
		backends  backendFlags
	)
	flag.Var(&backends, "backend", "eclipse-serve backend as host:port or URL (repeatable)")
	flag.Parse()

	if *retries < 0 {
		*retries = -1 // Config: negative means zero retries
	}
	gw, err := cluster.New(cluster.Config{
		Backends:      backends,
		ProbeInterval: *probeIvl,
		ProbeTimeout:  *probeTO,
		Rise:          *rise,
		Fall:          *fall,
		PassiveFall:   *passFall,
		MaxRetries:    *retries,
		RetryBase:     *retryBase,
		RetryMax:      *retryMax,
		MaxBodyBytes:  *maxBody,
		L1Bytes:       *l1Bytes,
		L1MaxObject:   *l1MaxObj,
	})
	if err != nil {
		log.Fatalf("eclipse-gateway: %v", err)
	}
	gw.Start()

	if *waitReady > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *waitReady)
		err := gw.WaitReady(ctx, 1)
		cancel()
		if err != nil {
			log.Fatalf("eclipse-gateway: %v", err)
		}
	}

	hs := &http.Server{Addr: *addr, Handler: gw.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("eclipse-gateway listening on %s (%d backends, probe %s, rise/fall %d/%d)",
		*addr, len(backends), *probeIvl, *rise, *fall)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("eclipse-gateway: %v", err)
	case s := <-sig:
		log.Printf("eclipse-gateway: %v — shutting down", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("eclipse-gateway: http shutdown: %v", err)
	}
	gw.Stop()
	gw.WritePrometheus(os.Stderr)
	log.Printf("eclipse-gateway: bye")
}
