package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipse/internal/serve"
)

// l1Post sends one gateway request with optional extra headers.
func l1Post(t *testing.T, url, path string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
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
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestL1Lifecycle drives the L1 against real eclipse-serve backends:
// miss→fill, hits that send nothing upstream and carry the backend's
// immutable Cache-Control but no Age, then the whole fleet killed — the
// resident entry still answers, because content-addressed bytes never
// need a coherency check. Every 200 is byte-identical to the offline
// codec.
func TestL1Lifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster E2E in -short mode")
	}
	items := buildClusterCatalog(t, 1)
	c := newTestCluster(t, func(cfg *Config) { cfg.L1Bytes = 64 << 20 })
	met := c.gw.Metrics()

	// Miss → fill: the backend's own X-Cache crosses the gateway.
	resp, body := c.post(t, "/v1/decode", items[0].stream)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fill: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(CacheHeader); strings.HasPrefix(got, "l1-") {
		t.Fatalf("first request X-Cache %q, want a backend outcome", got)
	}
	if !bytes.Equal(body, items[0].wantRaw) {
		t.Fatal("fill: body differs from offline codec")
	}
	if met.L1Misses.Load() != 1 || met.L1Fills.Load() != 1 {
		t.Fatalf("after fill: misses=%d fills=%d, want 1/1", met.L1Misses.Load(), met.L1Fills.Load())
	}

	// Hits: served locally, byte-identical, no upstream attempts.
	backendReqs := func() (n uint64) {
		for _, b := range c.gw.Backends() {
			n += b.Snapshot().Requests
		}
		return n
	}
	attemptBase := backendReqs()
	for i := 0; i < 3; i++ {
		resp, body = c.post(t, "/v1/decode", items[0].stream)
		if got := resp.Header.Get(CacheHeader); got != XCacheL1Hit {
			t.Fatalf("hit %d: X-Cache %q, want %q", i, got, XCacheL1Hit)
		}
		if got := resp.Header.Get("Age"); got != "" {
			t.Fatalf("hit %d: Age %q on an immutable entry", i, got)
		}
		if got := resp.Header.Get("Cache-Control"); !strings.Contains(got, "immutable") {
			t.Fatalf("hit %d: Cache-Control %q, want immutable", i, got)
		}
		if !bytes.Equal(body, items[0].wantRaw) {
			t.Fatalf("hit %d: body differs from offline codec (L1 must be byte-identical to L2)", i)
		}
	}
	if n := backendReqs(); n != attemptBase {
		t.Fatalf("hit phase sent %d upstream attempts, want 0", n-attemptBase)
	}
	if met.L1Hits.Load() != 3 {
		t.Fatalf("l1 hits %d, want 3", met.L1Hits.Load())
	}

	// Kill the entire fleet: the resident entry still answers.
	for i := range c.ts {
		c.ts[i].CloseClientConnections()
		c.ts[i].Close()
	}
	resp, body = c.post(t, "/v1/decode", items[0].stream)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != XCacheL1Hit {
		t.Fatalf("post-kill hit: status %d X-Cache %q", resp.StatusCode, resp.Header.Get(CacheHeader))
	}
	if !bytes.Equal(body, items[0].wantRaw) {
		t.Fatal("post-kill hit differs from offline codec")
	}
}

// TestL1HitsSendNoRevalidation: hits on a resident key send nothing
// upstream, and no request the gateway sends carries If-None-Match of
// its own making. A client's If-None-Match with the content address is
// answered 304 with the immutable Cache-Control a 200 carries.
func TestL1HitsSendNoRevalidation(t *testing.T) {
	f := newFakeBackend(t)
	f.mode.Store("echo")
	g := newTestGateway(t, Config{L1Bytes: 1 << 20}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	payload := []byte("resident")
	for i := 0; i < 4; i++ {
		resp, body := l1Post(t, ts.URL, "/v1/decode", payload, nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
			t.Fatalf("request %d: status %d body %q", i, resp.StatusCode, body)
		}
		if i > 0 && resp.Header.Get(CacheHeader) != XCacheL1Hit {
			t.Fatalf("request %d: X-Cache %q, want %q", i, resp.Header.Get(CacheHeader), XCacheL1Hit)
		}
	}
	resp, _ := l1Post(t, ts.URL, "/v1/decode", payload, map[string]string{"If-None-Match": serve.DecodeKey(payload).ETag()})
	if resp.StatusCode != http.StatusNotModified || resp.Header.Get("Cache-Control") != serve.ImmutableCacheControl {
		t.Fatalf("client If-None-Match: status %d Cache-Control %q, want 304 and %q",
			resp.StatusCode, resp.Header.Get("Cache-Control"), serve.ImmutableCacheControl)
	}
	if f.hits.Load() != 1 || f.inm.Load() != 0 {
		t.Fatalf("backend saw %d requests, %d with If-None-Match; want 1 and 0", f.hits.Load(), f.inm.Load())
	}
}

// TestL1StormSingleRoundTrip: 32 identical concurrent requests on a
// cold key reach the backend exactly once with the L1 on — the
// gateway-side singleflight collapses the storm before it ever leaves
// the gateway.
func TestL1StormSingleRoundTrip(t *testing.T) {
	f := newFakeBackend(t)
	f.delay.Store(int64(30 * time.Millisecond)) // hold the leader upstream so the storm piles up
	g := newTestGateway(t, Config{L1Bytes: 1 << 20}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	const stormN = 32
	payload := []byte("storm-payload")
	type res struct {
		status int
		xcache string
		body   []byte
	}
	results := make([]res, stormN)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < stormN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, body := l1Post(t, ts.URL, "/v1/decode", payload, nil)
			results[i] = res{status: resp.StatusCode, xcache: resp.Header.Get(CacheHeader), body: body}
		}(i)
	}
	close(start)
	wg.Wait()

	if got := f.hits.Load(); got != 1 {
		t.Fatalf("backend saw %d requests during the storm, want exactly 1", got)
	}
	l1Served := 0
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("storm request %d: status %d", i, r.status)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("storm request %d: body differs", i)
		}
		if strings.HasPrefix(r.xcache, "l1-") {
			l1Served++
		}
	}
	if l1Served != stormN-1 {
		t.Fatalf("%d responses served by the L1, want %d (all but the leader)", l1Served, stormN-1)
	}
}

// TestL1EvictionAliasingStress hammers a tiny L1 budget with many
// distinct keys from concurrent clients. Constant eviction churn plus
// slab recycling must never alias one key's bytes into another's
// response — the refcount protocol under fire.
func TestL1EvictionAliasingStress(t *testing.T) {
	f := newFakeBackend(t)
	f.mode.Store("echo")
	// 64 KiB budget: about half of the 48 ~2.3 KiB entries fit, the
	// rest is eviction traffic.
	g := newTestGateway(t, Config{L1Bytes: 64 << 10}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	const nKeys = 48
	payloads := make([][]byte, nKeys)
	for i := range payloads {
		p := make([]byte, 2048)
		for j := range p {
			p[j] = byte(i + j*13)
		}
		payloads[i] = p
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 100; it++ {
				i := (w*31 + it*7) % nKeys
				resp, body := l1Post(t, ts.URL, "/v1/decode", payloads[i], nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d iter %d: status %d", w, it, resp.StatusCode)
					return
				}
				if !bytes.Equal(body, payloads[i]) {
					t.Errorf("worker %d iter %d: response aliased — got %d bytes of the wrong content", w, it, len(body))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if g.Metrics().L1Evictions.Load() == 0 {
		t.Fatal("no evictions under a 64 KiB budget — the stress did not stress")
	}
}

// TestL1RevalidateClientINM: a client that presents the content
// address in If-None-Match gets 304 straight from the gateway — no L1
// entry, no backend traffic.
func TestL1RevalidateClientINM(t *testing.T) {
	f := newFakeBackend(t)
	g := newTestGateway(t, Config{L1Bytes: 1 << 20}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	payload := []byte("inm-payload")
	etag := serve.DecodeKey(payload).ETag()
	resp, _ := l1Post(t, ts.URL, "/v1/decode", payload, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("status %d, want 304", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("ETag %q, want %q", got, etag)
	}
	if f.hits.Load() != 0 {
		t.Fatalf("backend saw %d requests, want 0 — the content address decides locally", f.hits.Load())
	}
	if g.Metrics().L1ClientNotMod.Load() != 1 {
		t.Fatalf("client_not_modified %d, want 1", g.Metrics().L1ClientNotMod.Load())
	}

	// A non-matching tag proxies normally.
	resp, body := l1Post(t, ts.URL, "/v1/decode", payload, map[string]string{"If-None-Match": `"deadbeef"`})
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("non-matching INM: status %d body %d bytes", resp.StatusCode, len(body))
	}
	if f.hits.Load() != 1 {
		t.Fatalf("backend saw %d requests after non-matching INM, want 1", f.hits.Load())
	}
}

// TestL1StreamThroughOverCap: a response over the per-object cap
// reaches the client byte-complete but streams through the gateway —
// nothing is buffered beyond the cap and nothing enters the L1.
func TestL1StreamThroughOverCap(t *testing.T) {
	f := newFakeBackend(t)
	f.mode.Store("big")
	g := newTestGateway(t, Config{L1Bytes: 1 << 20, L1MaxObject: 4096}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	want := fakeBigBody()
	for i := 0; i < 2; i++ {
		resp, body := l1Post(t, ts.URL, "/v1/decode", []byte("big-one"), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("request %d: got %d bytes, want %d intact", i, len(body), len(want))
		}
	}
	met := g.Metrics()
	if met.StreamThrough.Load() != 2 {
		t.Fatalf("stream_through %d, want 2", met.StreamThrough.Load())
	}
	if met.L1Fills.Load() != 0 {
		t.Fatalf("an over-cap body was filled into the L1 (%d fills)", met.L1Fills.Load())
	}
	if f.hits.Load() != 2 {
		t.Fatalf("backend hits %d, want 2 — over-cap responses are never cached", f.hits.Load())
	}
}

// TestL1MidStreamKill502: with the L1 on, a backend dying mid-response
// under the cap still yields the buffered-path invariant — 502, zero
// partial bytes.
func TestL1MidStreamKill502(t *testing.T) {
	f := newFakeBackend(t)
	f.mode.Store("midstream")
	g := newTestGateway(t, Config{L1Bytes: 1 << 20, MaxRetries: 1}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	resp, body := l1Post(t, ts.URL, "/v1/decode", []byte("doomed"), nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if bytes.Contains(body, []byte("partial-payload")) {
		t.Fatal("partial upstream bytes leaked to the client")
	}
	if g.Metrics().MidStream.Load() == 0 {
		t.Fatal("mid-stream counter not incremented")
	}
	if g.Metrics().L1Fills.Load() != 0 {
		t.Fatal("a partial body was filled into the L1")
	}
}

// TestL1StormAfterWarm: identical requests arriving while the key is
// warm are all L1 hits; the Latency histogram (proxied work only)
// stays put while L1HitLat accumulates.
func TestL1StormAfterWarm(t *testing.T) {
	f := newFakeBackend(t)
	g := newTestGateway(t, Config{L1Bytes: 1 << 20}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	payload := []byte("warm-me")
	l1Post(t, ts.URL, "/v1/decode", payload, nil) // fill
	latBase := g.Metrics().Latency[serve.KindDecode].Count()
	for i := 0; i < 5; i++ {
		resp, _ := l1Post(t, ts.URL, "/v1/decode", payload, nil)
		if got := resp.Header.Get(CacheHeader); got != XCacheL1Hit {
			t.Fatalf("warm request %d: X-Cache %q, want %q", i, got, XCacheL1Hit)
		}
	}
	if n := g.Metrics().Latency[serve.KindDecode].Count(); n != latBase {
		t.Fatalf("L1 hits entered the proxied latency histogram (%d→%d)", latBase, n)
	}
	if n := g.Metrics().L1HitLat.Count(); n != 5 {
		t.Fatalf("L1HitLat count %d, want 5", n)
	}
	if f.hits.Load() != 1 {
		t.Fatalf("backend hits %d, want 1", f.hits.Load())
	}
}
