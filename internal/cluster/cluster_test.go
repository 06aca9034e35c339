package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"eclipse/internal/media"
	"eclipse/internal/serve"
)

// clusterItem is one catalog entry with its offline-computed truth.
type clusterItem struct {
	stream    []byte // ECL1 bitstream
	wantRaw   []byte // decode truth: concatenated display-order luma
	wantXcode []byte // transcode truth at xcodeQ
}

const xcodeQ = 8

// buildClusterCatalog encodes n synthetic clips and derives, with the
// offline codec, the exact bytes every backend must serve.
func buildClusterCatalog(t *testing.T, n int) []clusterItem {
	t.Helper()
	items := make([]clusterItem, n)
	for i := range items {
		src := media.DefaultSource(64, 48)
		src.Seed = int64(i + 1)
		fr := media.NewSource(src).Frames(4)
		cfg := media.DefaultCodec(64, 48)
		cfg.Q = 6
		stream, _, _, err := media.Encode(cfg, fr)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := media.Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		var raw []byte
		for _, f := range ref.DisplayFrames() {
			raw = append(raw, f.Pix...)
		}
		xcode, _, _, err := media.Encode(serve.TranscodeConfig(ref.Seq, xcodeQ), ref.DisplayFrames())
		if err != nil {
			t.Fatal(err)
		}
		items[i] = clusterItem{stream: stream, wantRaw: raw, wantXcode: xcode}
	}
	return items
}

// testCluster is 3 real eclipse-serve backends behind one gateway.
type testCluster struct {
	srvs []*serve.Server
	ts   []*httptest.Server
	gw   *Gateway
	gwTS *httptest.Server
}

func newTestCluster(t *testing.T, mut func(*Config)) *testCluster {
	t.Helper()
	c := &testCluster{}
	addrs := make([]string, 3)
	for i := 0; i < 3; i++ {
		srv := serve.New(serve.Config{Workers: 2, BaseSlice: 2 * time.Millisecond, QueueCap: 32})
		ts := httptest.NewServer(srv.Handler())
		c.srvs = append(c.srvs, srv)
		c.ts = append(c.ts, ts)
		addrs[i] = ts.Listener.Addr().String()
	}
	cfg := Config{
		ProbeInterval: 10 * time.Millisecond,
		Rise:          2,
		Fall:          2,
		PassiveFall:   2,
		MaxRetries:    2,
		RetryBase:     2 * time.Millisecond,
		Backends:      addrs,
	}
	if mut != nil {
		mut(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.gw = gw
	gw.Start()
	c.gwTS = httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		c.gwTS.Close()
		gw.Stop()
		for i := range c.srvs {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			c.srvs[i].Shutdown(ctx)
			cancel()
			c.ts[i].Close()
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gw.WaitReady(ctx, 3); err != nil {
		t.Fatal(err)
	}
	return c
}

// post sends one media request through the gateway.
func (c *testCluster) post(t *testing.T, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(c.gwTS.URL+path, "application/octet-stream", bytes.NewReader(body))
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

// verifyItem round-trips one catalog entry (decode + transcode) through
// the gateway and checks byte identity against the offline codec.
func (c *testCluster) verifyItem(t *testing.T, tag string, it clusterItem) {
	t.Helper()
	resp, got := c.post(t, "/v1/decode", it.stream)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s decode: status %d (backend %s): %s", tag, resp.StatusCode, resp.Header.Get(BackendHeader), got)
	}
	if !bytes.Equal(got, it.wantRaw) {
		t.Fatalf("%s decode via %s: %d bytes differ from offline codec (want %d bytes)",
			tag, resp.Header.Get(BackendHeader), len(got), len(it.wantRaw))
	}
	resp, got = c.post(t, fmt.Sprintf("/v1/transcode?q=%d", xcodeQ), it.stream)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s transcode: status %d (backend %s): %s", tag, resp.StatusCode, resp.Header.Get(BackendHeader), got)
	}
	if !bytes.Equal(got, it.wantXcode) {
		t.Fatalf("%s transcode via %s: output differs from offline codec", tag, resp.Header.Get(BackendHeader))
	}
}

// TestClusterE2E is the acceptance scenario: mixed decode/transcode
// load through the gateway stays byte-identical to the offline codec
// while one backend is gracefully drained and another is hard-killed
// mid-run. No client ever sees an error or a corrupt byte.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster E2E in -short mode")
	}
	items := buildClusterCatalog(t, 3)
	c := newTestCluster(t, nil)

	// Phase 1: full fleet. Every item verifies through the gateway.
	for i, it := range items {
		c.verifyItem(t, fmt.Sprintf("phase1-item%d", i), it)
	}

	// Phase 2: drain backend 1 gracefully while load continues. Its
	// 503 + X-Eclipse-Draining answers must be retried elsewhere, and
	// the prober must pull it from the ring.
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drainDone <- c.srvs[1].Shutdown(ctx)
	}()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, it := range items {
				c.verifyItem(t, fmt.Sprintf("phase2-w%d-item%d", w, i), it)
			}
		}(w)
	}
	wg.Wait()
	if err := <-drainDone; err != nil {
		t.Fatalf("backend drain: %v", err)
	}
	waitState(t, c.gw.backends[1], StateDraining)

	// Phase 3: hard-kill backend 2 (connections die mid-flight) and
	// keep serving. Retries and passive ejection route around it.
	c.ts[2].CloseClientConnections()
	c.ts[2].Close()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, it := range items {
				c.verifyItem(t, fmt.Sprintf("phase3-w%d-item%d", w, i), it)
			}
		}(w)
	}
	wg.Wait()
	waitState(t, c.gw.backends[2], StateDown)

	// The gateway is still ready on the surviving backend, and the
	// failure handling left its fingerprints in the metrics.
	resp, err := http.Get(c.gwTS.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway readyz %d with one live backend, want 200", resp.StatusCode)
	}
	if c.gw.met.RingChurn.Load() < 2 {
		t.Fatalf("ring churn %d, want >= 2 (drain + kill)", c.gw.met.RingChurn.Load())
	}
}

// TestClusterStormCollapse: a storm of identical cold-key decodes
// arriving through the gateway lands on exactly one backend (rendezvous
// affinity) and admits exactly one decode there (singleflight) — the
// single-node guarantee, now cluster-wide, under the shipping Config.
func TestClusterStormCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster E2E in -short mode")
	}
	items := buildClusterCatalog(t, 1)
	c := newTestCluster(t, nil)

	const stormN = 16
	type res struct {
		backend string
		outcome string
		status  int
		body    []byte
	}
	results := make([]res, stormN)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < stormN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, body := c.post(t, "/v1/decode", items[0].stream)
			results[i] = res{
				backend: resp.Header.Get(BackendHeader),
				outcome: resp.Header.Get("X-Cache"),
				status:  resp.StatusCode,
				body:    body,
			}
		}(i)
	}
	close(start)
	wg.Wait()

	misses := 0
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("storm request %d: status %d", i, r.status)
		}
		if !bytes.Equal(r.body, items[0].wantRaw) {
			t.Fatalf("storm request %d: body differs from offline codec", i)
		}
		if r.backend != results[0].backend {
			t.Fatalf("storm split across backends: %s and %s — affinity broken", results[0].backend, r.backend)
		}
		if r.outcome == serve.CacheMiss.String() {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d cache misses across the storm, want exactly 1 decode cluster-wide", misses)
	}

	// Direct backend check: the two non-preferred backends never saw a
	// decode at all.
	sawWork := 0
	for _, b := range c.gw.backends {
		if b.requests.Load() > 0 {
			sawWork++
		}
	}
	if sawWork != 1 {
		t.Fatalf("%d backends saw traffic during the storm, want 1", sawWork)
	}
}

// TestClusterAffinityAcrossRequests: repeating a request later (not a
// concurrent storm) still lands on the same backend and hits its cache.
func TestClusterAffinityAcrossRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster E2E in -short mode")
	}
	items := buildClusterCatalog(t, 2)
	c := newTestCluster(t, nil)

	first := make(map[int]string)
	for i, it := range items {
		resp, _ := c.post(t, "/v1/decode", it.stream)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("item %d: status %d", i, resp.StatusCode)
		}
		first[i] = resp.Header.Get(BackendHeader)
	}
	for i, it := range items {
		resp, body := c.post(t, "/v1/decode", it.stream)
		if got := resp.Header.Get(BackendHeader); got != first[i] {
			t.Fatalf("item %d moved from %s to %s between requests", i, first[i], got)
		}
		if got := resp.Header.Get("X-Cache"); got != serve.CacheHit.String() {
			t.Fatalf("item %d repeat: X-Cache %q, want hit (affinity should warm exactly one cache)", i, got)
		}
		if !bytes.Equal(body, items[i].wantRaw) {
			t.Fatalf("item %d repeat: body differs", i)
		}
	}
}
