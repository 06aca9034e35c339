package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"eclipse/internal/serve"
)

// fakeBigBody is 256 KiB of deterministic bytes — large enough to
// overflow any small per-object cap a test configures.
func fakeBigBody() []byte {
	b := make([]byte, 256<<10)
	for i := range b {
		b[i] = byte(i*7 + 13)
	}
	return b
}

// fakeBackend is a scriptable stand-in for an eclipse-serve instance.
// Its mode selects the behaviour of both the /readyz probe and the
// media endpoints:
//
//	ok        200s everywhere
//	fail      500s everywhere (probe failure, non-retryable media 500)
//	drain     503 + X-Eclipse-Draining + Retry-After everywhere
//	pushback  readyz 200; media 429 with a scheduler-style Retry-After
//	midstream readyz 200; media sends headers then aborts the connection
//	echo      media reflects the request body (distinct keys, distinct
//	          bytes — the L1 aliasing stress backend)
//	big       media serves fakeBigBody deterministic bytes (over any
//	          small per-object cap: the stream-through backend)
//	refuse    media answers 413 before it reads the request body
type fakeBackend struct {
	ts        *httptest.Server
	mode      atomic.Value // string
	delay     atomic.Int64 // ns of sleep before answering media requests
	hits      atomic.Int64 // media requests received
	probes    atomic.Int64 // readyz probes received
	cancelled atomic.Int64 // media requests whose context died mid-delay
}

const fakeRetryAfter = "0.137"

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{}
	f.mode.Store("ok")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		switch f.mode.Load().(string) {
		case "flap":
			// Alternate ok/fail per probe: never Rise consecutive 200s.
			if f.probes.Add(1)%2 == 0 {
				w.WriteHeader(http.StatusInternalServerError)
			}
		case "drain":
			w.Header().Set(serve.DrainingHeader, "1")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		case "fail":
			w.WriteHeader(http.StatusInternalServerError)
		default:
			w.WriteHeader(http.StatusOK)
		}
	})
	media := func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		if f.mode.Load().(string) == "refuse" {
			http.Error(w, "too large", http.StatusRequestEntityTooLarge)
			return
		}
		// Consume the body like a real backend: the server's client-abort
		// detection (background read) only arms once the body is drained.
		reqBody, _ := io.ReadAll(r.Body)
		if d := f.delay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				f.cancelled.Add(1)
				return
			}
		}
		switch f.mode.Load().(string) {
		case "fail":
			http.Error(w, "internal", http.StatusInternalServerError)
		case "drain":
			w.Header().Set(serve.DrainingHeader, "1")
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case "pushback":
			w.Header().Set("Retry-After", fakeRetryAfter)
			http.Error(w, "queue full", http.StatusTooManyRequests)
		case "midstream":
			w.Header().Set("Content-Length", "1048576")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("partial-payload"))
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
			panic(http.ErrAbortHandler)
		case "echo":
			w.Header().Set("Cache-Control", "max-age=60")
			w.Header().Set("Content-Length", strconv.Itoa(len(reqBody)))
			w.Write(reqBody)
		case "big":
			body := fakeBigBody()
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
		default:
			fmt.Fprintf(w, "hello from %s", r.Host)
		}
	}
	mux.HandleFunc("POST /v1/decode", media)
	mux.HandleFunc("POST /v1/encode", media)
	mux.HandleFunc("POST /v1/transcode", media)
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// addr returns the backend's host:port — its gateway identity.
func (f *fakeBackend) addr() string { return f.ts.Listener.Addr().String() }

// newTestGateway builds a gateway over the addresses without starting
// the probers; tests drive backend state explicitly for determinism.
func newTestGateway(t *testing.T, cfg Config, addrs ...string) *Gateway {
	t.Helper()
	cfg.Backends = addrs
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// forceUp marks every backend routable, bypassing the prober.
func forceUp(g *Gateway) {
	for _, b := range g.backends {
		g.setState(b, StateUp)
	}
}

// waitState polls until the backend reaches the wanted state.
func waitState(t *testing.T, b *Backend, want BackendState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("backend %s: state %v, want %v", b.Name(), b.State(), want)
}
