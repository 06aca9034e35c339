package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"eclipse/internal/serve"
)

// postMedia sends one decode POST through a handler-mounted gateway.
func postMedia(t *testing.T, url string, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/decode", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPushback429Passthrough is the Retry-After regression test: when
// retries are exhausted against a loaded fleet, the final 429 must
// cross the gateway verbatim — in particular the scheduler's EWMA
// Retry-After value, which clients use to pace their backoff.
func TestPushback429Passthrough(t *testing.T) {
	f := newFakeBackend(t)
	f.mode.Store("pushback")
	g := newTestGateway(t, Config{
		MaxRetries:    2,
		RetryBase:     time.Millisecond,
		HedgeDisabled: true,
	}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	resp := postMedia(t, ts.URL, "stream-bytes", nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != fakeRetryAfter {
		t.Fatalf("Retry-After %q did not survive the gateway hop, want %q", got, fakeRetryAfter)
	}
	if !strings.Contains(body, "queue full") {
		t.Fatalf("backend error body %q not relayed", body)
	}
	if got := resp.Header.Get(BackendHeader); got != g.backends[0].Name() {
		t.Fatalf("X-Backend %q, want %q", got, g.backends[0].Name())
	}
	if got := g.met.Retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2 (bounded)", got)
	}
	if got := g.met.Passthrough.Load(); got != 1 {
		t.Fatalf("passthrough = %d, want 1", got)
	}
	// Pushback is load, not death: the backend must not be ejected.
	if g.backends[0].State() != StateUp {
		t.Fatalf("429s ejected the backend (state %v)", g.backends[0].State())
	}
}

// TestPushback503DrainingPassthrough: a draining backend's 503 is
// relayed verbatim (header and Retry-After intact) once no alternative
// exists, and the backend leaves the routable set immediately.
func TestPushback503DrainingPassthrough(t *testing.T) {
	f := newFakeBackend(t)
	f.mode.Store("drain")
	g := newTestGateway(t, Config{
		MaxRetries:    1,
		RetryBase:     time.Millisecond,
		HedgeDisabled: true,
	}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	resp := postMedia(t, ts.URL, "stream-bytes", nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(serve.DrainingHeader) == "" {
		t.Fatal("X-Eclipse-Draining did not survive the gateway hop")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("Retry-After did not survive the gateway hop")
	}
	// The passive drain signal removed the backend without a probe.
	if g.backends[0].State() != StateDraining {
		t.Fatalf("state %v, want draining", g.backends[0].State())
	}
}

// TestBodyTooLarge: a client body one byte over MaxBodyBytes is 413 at
// the gateway and never reaches a backend; exactly MaxBodyBytes is
// proxied.
func TestBodyTooLarge(t *testing.T) {
	const max = 64
	f := newFakeBackend(t)
	g := newTestGateway(t, Config{MaxBodyBytes: max, MaxRetries: -1, HedgeDisabled: true}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	resp := postMedia(t, ts.URL, strings.Repeat("x", max+1), nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body (cap %d): status %d, want 413", max+1, max, resp.StatusCode)
	}
	resp = postMedia(t, ts.URL, strings.Repeat("x", max), nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d-byte body (cap %d): status %d, want 200", max, max, resp.StatusCode)
	}
	if got := f.hits.Load(); got != 1 {
		t.Fatalf("backend saw %d requests, want 1 (the oversized body must not be proxied)", got)
	}
}

// TestMidStreamKill: a backend that dies after sending its response
// headers yields a clean 502 — the client must never see a 200 status
// with a truncated body, and the partial payload must not leak.
func TestMidStreamKill(t *testing.T) {
	f := newFakeBackend(t)
	f.mode.Store("midstream")
	g := newTestGateway(t, Config{MaxRetries: -1, HedgeDisabled: true}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	resp := postMedia(t, ts.URL, "stream-bytes", nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if strings.Contains(body, "partial-payload") {
		t.Fatalf("partial upstream body leaked to the client: %q", body)
	}
	if got := g.met.MidStream.Load(); got != 1 {
		t.Fatalf("mid-stream counter = %d, want 1", got)
	}
}

// TestHedgeWinnerLoser: with the preferred backend stalled past the
// hedge delay, the duplicate attempt to the runner-up wins, exactly one
// response body reaches the client, the loser's request is cancelled,
// and no attempt goroutine outlives the request.
func TestHedgeWinnerLoser(t *testing.T) {
	f0, f1 := newFakeBackend(t), newFakeBackend(t)
	g := newTestGateway(t, Config{
		MaxRetries: -1,
		HedgeAfter: 15 * time.Millisecond,
	}, f0.addr(), f1.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	body := "stream-bytes"
	order := g.ring.order(serve.DecodeKey([]byte(body)))
	byAddr := map[string]*fakeBackend{f0.addr(): f0, f1.addr(): f1}
	slow, fast := byAddr[order[0].Name()], byAddr[order[1].Name()]
	slow.delay.Store(int64(2 * time.Second))

	before := runtime.NumGoroutine()
	resp := postMedia(t, ts.URL, body, nil)
	got := readAll(t, resp)

	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if want := "hello from " + fast.addr(); got != want {
		t.Fatalf("body %q, want exactly one response body %q", got, want)
	}
	if h := resp.Header.Get(BackendHeader); h != fast.addr() {
		t.Fatalf("X-Backend %q, want hedge target %q", h, fast.addr())
	}
	if resp.Header.Get(HedgeWinHeader) != "1" {
		t.Fatal("hedge win not marked")
	}
	k := serve.KindDecode
	if g.met.Hedges[k].Load() != 1 || g.met.HedgeWins[k].Load() != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", g.met.Hedges[k].Load(), g.met.HedgeWins[k].Load())
	}

	// The loser must observe cancellation well before its 2s stall ends.
	deadline := time.Now().Add(3 * time.Second)
	for slow.cancelled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("losing attempt was never cancelled")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// And the attempt goroutines must drain (buffered results channel —
	// nothing blocks forever on a send nobody receives). Idle keepalive
	// connections park two transport goroutines each; close them so the
	// count reflects attempt goroutines only.
	for {
		g.client.CloseIdleConnections()
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHedgeNeedsSecondBackend: with a single routable backend the hedge
// timer must not duplicate the request onto the same node.
func TestHedgeNeedsSecondBackend(t *testing.T) {
	f := newFakeBackend(t)
	f.delay.Store(int64(40 * time.Millisecond))
	g := newTestGateway(t, Config{MaxRetries: -1, HedgeAfter: 5 * time.Millisecond}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	resp := postMedia(t, ts.URL, "stream-bytes", nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := f.hits.Load(); got != 1 {
		t.Fatalf("backend saw %d requests, want 1 (no self-hedge)", got)
	}
	if got := g.met.Hedges[serve.KindDecode].Load(); got != 0 {
		t.Fatalf("hedges = %d, want 0", got)
	}
}

// TestTransportRetryFailover: a killed backend produces a connect
// error; the retry path moves the request to the survivor and the dead
// node accumulates passive failures.
func TestTransportRetryFailover(t *testing.T) {
	f0, f1 := newFakeBackend(t), newFakeBackend(t)
	g := newTestGateway(t, Config{
		MaxRetries:    2,
		RetryBase:     time.Millisecond,
		HedgeDisabled: true,
		PassiveFall:   1,
	}, f0.addr(), f1.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	body := "stream-bytes"
	order := g.ring.order(serve.DecodeKey([]byte(body)))
	dead := byName(t, []*fakeBackend{f0, f1}, order[0].Name())
	dead.ts.CloseClientConnections()
	dead.ts.Close()

	resp := postMedia(t, ts.URL, body, nil)
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover", resp.StatusCode)
	}
	if want := "hello from " + order[1].Name(); got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
	if order[0].State() != StateDown {
		t.Fatalf("dead backend state %v, want down (passive ejection)", order[0].State())
	}
	if g.met.Retries.Load() == 0 {
		t.Fatal("failover did not count a retry")
	}
}

func byName(t *testing.T, fs []*fakeBackend, name string) *fakeBackend {
	t.Helper()
	for _, f := range fs {
		if f.addr() == name {
			return f
		}
	}
	t.Fatalf("no fake backend named %s", name)
	return nil
}

// TestTimeoutBudget: X-Timeout-Ms bounds the whole request through the
// gateway; exhaustion is a 504, and a malformed header is a 400 before
// any upstream traffic.
func TestTimeoutBudget(t *testing.T) {
	f := newFakeBackend(t)
	f.delay.Store(int64(5 * time.Second))
	g := newTestGateway(t, Config{MaxRetries: -1, HedgeDisabled: true}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	start := time.Now()
	resp := postMedia(t, ts.URL, "stream-bytes", map[string]string{"X-Timeout-Ms": "50"})
	readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("budget of 50ms took %v to enforce", el)
	}

	resp = postMedia(t, ts.URL, "stream-bytes", map[string]string{"X-Timeout-Ms": "bogus"})
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d for bad X-Timeout-Ms, want 400", resp.StatusCode)
	}
	if got := f.hits.Load(); got != 1 {
		t.Fatalf("malformed budget reached the backend (hits=%d, want 1)", got)
	}
}

// TestNoRoutableBackend: with the whole fleet down the gateway sheds
// with 503 + Retry-After rather than queueing or connecting blindly.
func TestNoRoutableBackend(t *testing.T) {
	f := newFakeBackend(t)
	g := newTestGateway(t, Config{HedgeDisabled: true}, f.addr())
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	resp := postMedia(t, ts.URL, "stream-bytes", nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed without Retry-After")
	}
	if got := g.met.NoBackend.Load(); got != 1 {
		t.Fatalf("no-backend counter = %d, want 1", got)
	}
	if got := f.hits.Load(); got != 0 {
		t.Fatalf("request reached a non-routable backend (hits=%d)", got)
	}
}
