package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status and the byte count, so the measured loop allocates nothing of
// its own on the response side.
type discardWriter struct {
	hdr  http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// raceDetector is set by race_test.go when the race detector is on.
var raceDetector bool

// TestGatewayAllocBudget pins the bytes allocated per request through
// g.Handler().ServeHTTP with pools warm, for a warm L1 hit and for an
// L1-off proxied decode against a fake backend (whose server side runs
// in this process and is counted too). Each budget is the count on the
// code that set it plus 5 %: 5 984 B/op (21 allocs) for the hit and
// about 17 320 B/op (110 allocs) for the proxied request. While each
// upstream attempt ran on its own goroutine with a results channel and
// a cancel context — the machinery hedging needed — the proxied request
// counted 18 280–18 622 B/op (119 allocs) on the same loop.
func TestGatewayAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool items at random, so the counts are not comparable")
	}
	body := []byte("stream-bytes")
	for _, tc := range []struct {
		name   string
		l1     int64
		want   string // X-Cache on every measured response
		budget uint64
	}{
		{"l1-hit", 1 << 20, XCacheL1Hit, 6283},
		{"proxied", 0, "", 18186},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeBackend(t)
			f.mode.Store("echo")
			g := newTestGateway(t, Config{L1Bytes: tc.l1}, f.addr())
			forceUp(g)
			w := &discardWriter{hdr: http.Header{}}
			run := func(n int) {
				for i := 0; i < n; i++ {
					*w = discardWriter{hdr: w.hdr}
					clear(w.hdr)
					g.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/decode", bytes.NewReader(body)))
					if w.code != http.StatusOK || w.n != len(body) {
						t.Fatalf("status %d, %d bytes", w.code, w.n)
					}
				}
			}
			run(4) // fill the L1, open the upstream connection, warm the pools
			const ops = 64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(ops)
			runtime.ReadMemStats(&after)
			if got := w.hdr.Get(CacheHeader); got != tc.want {
				t.Fatalf("X-Cache %q, want %q", got, tc.want)
			}
			perOp := (after.TotalAlloc - before.TotalAlloc) / ops
			allocs := (after.Mallocs - before.Mallocs) / ops
			t.Logf("%s: %d B/op, %d allocs/op (budget %d B)", tc.name, perOp, allocs, tc.budget)
			if perOp > tc.budget {
				t.Errorf("%s allocates %d B/op, budget %d", tc.name, perOp, tc.budget)
			}
		})
	}
}
