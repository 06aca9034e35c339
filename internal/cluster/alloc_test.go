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
// g.Handler().ServeHTTP with pools warm, for a warm L1 hit, for an L1-off
// proxied decode against a fake backend (whose server side runs in this
// process and is counted too), and for the same with a 3 KiB body, every
// other one sent without a length so the reader takes its 4 KiB start.
// Each budget is the largest count on the code that set it plus 5 %,
// taken over 25 runs beside a media test run that loads both CPUs (the
// proxied counts rise by up to 850 B/op under load): 5 456 B/op (20
// allocs) for the hit, 13 466 B/op (107–108 allocs) for the proxied
// request and 20 609 B/op (114 allocs) with the 3 KiB body; unloaded they
// count 5 456, 12 608 and 20 047. While the request body was read through
// a heap http.MaxBytesReader they counted 5 520, 13 465 and 20 683 on the
// same loop. While the gateway read both bodies into fresh slices (io.ReadAll, and
// a 4 KiB buffer grown by append for the response) they counted 5 984,
// 17 264–18 035 and 36 280–36 340 B/op on the same loop; while each
// upstream attempt ran on its own goroutine with a results channel and a
// cancel context — the machinery hedging needed — the proxied request
// counted 18 280–18 622 B/op (119 allocs).
func TestGatewayAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool items at random, so the counts are not comparable")
	}
	for _, tc := range []struct {
		name    string
		l1      int64
		body    []byte
		chunked bool   // every other request declares no length
		want    string // X-Cache on every measured response
		budget  uint64
	}{
		{"l1-hit", 1 << 20, []byte("stream-bytes"), false, XCacheL1Hit, 5729},
		{"proxied", 0, []byte("stream-bytes"), false, "", 14140},
		{"proxied-3k", 0, bytes.Repeat([]byte("stream-bytes"), 256), true, "", 21640},
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
					r := httptest.NewRequest("POST", "/v1/decode", bytes.NewReader(tc.body))
					if tc.chunked && i%2 == 1 {
						r.ContentLength = -1
					}
					g.Handler().ServeHTTP(w, r)
					if w.code != http.StatusOK || w.n != len(tc.body) {
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
