package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipse/internal/media"
)

// offlineDecode is the reference for byte-identity checks: the offline
// codec's display-order luma planes.
func offlineDecode(t *testing.T, stream []byte) []byte {
	t.Helper()
	ref, err := media.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, f := range ref.DisplayFrames() {
		want = append(want, f.Pix...)
	}
	return want
}

// TestHTTPCacheHitAndETag drives the full hit lifecycle over HTTP:
// cold miss, warm hit (byte-identical, same strong ETag), and an
// If-None-Match revalidation answered 304 with no body. All three carry
// the fixed immutable Cache-Control.
func TestHTTPCacheHitAndETag(t *testing.T) {
	srv := New(Config{Workers: 2, BaseSlice: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	stream, _, _ := testStream(t, 96, 80, 5, nil)
	want := offlineDecode(t, stream)

	r1 := post(t, ts.URL+"/v1/decode", "alice", stream, nil)
	b1 := readAll(t, r1)
	if r1.StatusCode != 200 || r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold request: %d X-Cache=%q", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	etag := r1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("miss response missing ETag")
	}
	if !bytes.Equal(b1, want) {
		t.Fatal("miss body differs from the offline decoder")
	}
	wantCC := "max-age=31536000, immutable"
	if got := r1.Header.Get("Cache-Control"); got != wantCC {
		t.Fatalf("miss Cache-Control %q, want %q", got, wantCC)
	}

	r2 := post(t, ts.URL+"/v1/decode", "bob", stream, nil)
	b2 := readAll(t, r2)
	if r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm request X-Cache=%q, want hit", r2.Header.Get("X-Cache"))
	}
	if r2.Header.Get("ETag") != etag {
		t.Fatal("hit ETag differs from miss ETag")
	}
	if !bytes.Equal(b2, want) {
		t.Fatal("hit body differs from the offline decoder")
	}
	if got := r2.Header.Get("Cache-Control"); got != wantCC {
		t.Fatalf("hit Cache-Control %q, want %q", got, wantCC)
	}

	r3 := post(t, ts.URL+"/v1/decode", "alice", stream, map[string]string{"If-None-Match": etag})
	b3 := readAll(t, r3)
	if r3.StatusCode != http.StatusNotModified || len(b3) != 0 {
		t.Fatalf("revalidation: %d with %d body bytes, want 304 empty", r3.StatusCode, len(b3))
	}
	if r3.Header.Get("X-Cache") != "revalidated" {
		t.Fatalf("revalidation X-Cache=%q", r3.Header.Get("X-Cache"))
	}
	if got := r3.Header.Get("Cache-Control"); got != wantCC {
		t.Fatalf("304 Cache-Control %q, want %q", got, wantCC)
	}

	snap := srv.Cache().Snapshot()
	if snap.Hits < 1 || snap.Misses < 1 || snap.NotModified != 1 {
		t.Fatalf("cache counters hits=%d misses=%d 304=%d", snap.Hits, snap.Misses, snap.NotModified)
	}
	if !strings.Contains(metricsText(t, ts.URL), `eclipse_serve_cache_hits_total{tenant="bob"} 1`) {
		t.Fatal("/metrics missing bob's cache hit")
	}
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return string(readAll(t, resp))
}

// TestHTTPCacheStorm fires many concurrent identical decodes at a cold
// key: the scheduler must admit exactly one underlying job, and every
// response must carry the full correct body.
func TestHTTPCacheStorm(t *testing.T) {
	const n = 24
	srv := New(Config{Workers: 2, BaseSlice: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	stream, _, _ := testStream(t, 96, 80, 6, nil)
	want := offlineDecode(t, stream)

	var wg sync.WaitGroup
	outcomes := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			resp := post(t, ts.URL+"/v1/decode", tenant, stream, nil)
			body := readAll(t, resp)
			if resp.StatusCode != 200 {
				t.Errorf("storm request: %d", resp.StatusCode)
				return
			}
			if !bytes.Equal(body, want) {
				t.Error("storm response differs from the offline decoder")
				return
			}
			outcomes <- resp.Header.Get("X-Cache")
		}(fmt.Sprintf("tenant-%d", i%3))
	}
	wg.Wait()
	close(outcomes)

	counts := map[string]int{}
	for o := range outcomes {
		counts[o]++
	}
	if got := srv.Metrics().Requests[KindDecode].Load(); got != 1 {
		t.Fatalf("scheduler admitted %d decodes for %d identical requests (outcomes %v), want exactly 1", got, n, counts)
	}
	if counts["miss"] != 1 || counts["miss"]+counts["hit"]+counts["collapsed"] != n {
		t.Fatalf("outcome mix %v, want 1 miss and the rest hit/collapsed", counts)
	}
}

// TestHTTPCacheTenantModes checks the per-tenant override and the
// server-wide kill switch.
func TestHTTPCacheTenantModes(t *testing.T) {
	stream, _, _ := testStream(t, 48, 32, 3, nil)

	srv := New(Config{
		Workers:   1,
		BaseSlice: time.Millisecond,
		Tenants:   []TenantConfig{{Name: "raw", Cache: CacheOff}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for i := 0; i < 2; i++ {
		resp := post(t, ts.URL+"/v1/decode", "raw", stream, nil)
		readAll(t, resp)
		if got := resp.Header.Get("X-Cache"); got != "bypass" {
			t.Fatalf("CacheOff tenant request %d: X-Cache=%q, want bypass", i, got)
		}
		if resp.Header.Get("ETag") != "" {
			t.Fatal("bypass response must not claim an ETag")
		}
	}
	if got := srv.Metrics().Requests[KindDecode].Load(); got != 2 {
		t.Fatalf("bypass tenant admitted %d jobs, want 2 (no caching)", got)
	}

	off := New(Config{Workers: 1, BaseSlice: time.Millisecond, CacheBytes: -1})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	defer off.Shutdown(context.Background())
	if off.Cache() != nil {
		t.Fatal("negative CacheBytes must disable the cache")
	}
	resp := post(t, tsOff.URL+"/v1/decode", "anyone", stream, nil)
	readAll(t, resp)
	if got := resp.Header.Get("X-Cache"); got != "bypass" {
		t.Fatalf("disabled-cache server: X-Cache=%q, want bypass", got)
	}
}

// TestHTTPCacheOnOffByteIdentical replays the same request mix against
// a cache-enabled and a cache-disabled server and requires bit-equal
// responses — the cache must be invisible in the payload.
func TestHTTPCacheOnOffByteIdentical(t *testing.T) {
	on := New(Config{Workers: 2, BaseSlice: time.Millisecond})
	off := New(Config{Workers: 2, BaseSlice: time.Millisecond, CacheBytes: -1})
	tsOn := httptest.NewServer(on.Handler())
	tsOff := httptest.NewServer(off.Handler())
	defer tsOn.Close()
	defer tsOff.Close()
	defer on.Shutdown(context.Background())
	defer off.Shutdown(context.Background())

	stream, _, frames := testStream(t, 96, 80, 6, nil)
	var raw []byte
	for _, f := range frames {
		raw = append(raw, f.Pix...)
	}
	reqs := []struct {
		path string
		body []byte
	}{
		{"/v1/decode", stream},
		{"/v1/decode", stream}, // second pass: warm on the cached server
		{"/v1/transcode?q=9", stream},
		{"/v1/transcode?q=9", stream},
		{"/v1/encode?w=96&h=80&q=8", raw},
		{"/v1/encode?w=96&h=80&q=8", raw},
	}
	for i, rq := range reqs {
		a := post(t, tsOn.URL+rq.path, "x", rq.body, nil)
		b := post(t, tsOff.URL+rq.path, "x", rq.body, nil)
		ba, bb := readAll(t, a), readAll(t, b)
		if a.StatusCode != 200 || b.StatusCode != 200 {
			t.Fatalf("req %d %s: status %d vs %d", i, rq.path, a.StatusCode, b.StatusCode)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("req %d %s: cache-on response differs from cache-off (%d vs %d bytes)",
				i, rq.path, len(ba), len(bb))
		}
	}
}
