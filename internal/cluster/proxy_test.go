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
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
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
		MaxRetries: 1,
		RetryBase:  time.Millisecond,
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
	g := newTestGateway(t, Config{MaxBodyBytes: max, MaxRetries: -1}, f.addr())
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
	g := newTestGateway(t, Config{MaxRetries: -1}, f.addr())
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

// TestStalledPrimaryNotDuplicated: under the default Config, a
// preferred backend that is slow but alive keeps the request — no second
// copy goes to the runner-up, whose L2 is cold for the key. The stall
// (150 ms) outlasts any delay a duplicate-on-slowness policy would wait.
func TestStalledPrimaryNotDuplicated(t *testing.T) {
	f0, f1 := newFakeBackend(t), newFakeBackend(t)
	g := newTestGateway(t, Config{}, f0.addr(), f1.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	body := "stream-bytes"
	order := g.ring.order(serve.DecodeKey([]byte(body)))
	byAddr := map[string]*fakeBackend{f0.addr(): f0, f1.addr(): f1}
	preferred, runnerUp := byAddr[order[0].Name()], byAddr[order[1].Name()]
	preferred.delay.Store(int64(150 * time.Millisecond))

	resp := postMedia(t, ts.URL, body, nil)
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if want := "hello from " + preferred.addr(); got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
	if h := resp.Header.Get(BackendHeader); h != preferred.addr() {
		t.Fatalf("X-Backend %q, want the preferred backend %q", h, preferred.addr())
	}
	if n := runnerUp.hits.Load(); n != 0 {
		t.Fatalf("runner-up saw %d requests, want 0: a slow primary was duplicated", n)
	}
	if n := preferred.hits.Load(); n != 1 {
		t.Fatalf("preferred backend saw %d requests, want 1", n)
	}
}

// TestTransportRetryFailover: a killed backend produces a connect
// error; the retry path moves the request to the survivor and the dead
// node accumulates passive failures.
func TestTransportRetryFailover(t *testing.T) {
	f0, f1 := newFakeBackend(t), newFakeBackend(t)
	g := newTestGateway(t, Config{
		MaxRetries:  2,
		RetryBase:   time.Millisecond,
		PassiveFall: 1,
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
// gateway; exhaustion is a 504 that cancels the upstream attempt and
// leaves no goroutine behind, and a malformed header is a 400 before any
// upstream traffic.
func TestTimeoutBudget(t *testing.T) {
	f := newFakeBackend(t)
	f.delay.Store(int64(5 * time.Second))
	g := newTestGateway(t, Config{MaxRetries: -1}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()
	start := time.Now()
	resp := postMedia(t, ts.URL, "stream-bytes", map[string]string{"X-Timeout-Ms": "50"})
	readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("budget of 50ms took %v to enforce", el)
	}
	// The stalled backend must observe the cancellation well before its
	// 5s delay ends.
	deadline := time.Now().Add(3 * time.Second)
	for f.cancelled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the timed-out attempt was never cancelled upstream")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Idle keepalive connections park transport goroutines; close them
	// so the count reflects request goroutines only.
	for {
		g.client.CloseIdleConnections()
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
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
	g := newTestGateway(t, Config{}, f.addr())
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
