package serve

// Pins for the job bodies: malformed input answers 400 and leaks nothing,
// a served decode holds its reorder window of frames, not the clip, a
// cancelled encode leaks nothing, the serving
// tier's import graph stays clear of the simulator, and a cold decode
// and a cold transcode stay inside their allocation budgets.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"eclipse/internal/media"
)

// discardWriter is a ResponseWriter that keeps the status and the first
// bytes of the body and allocates nothing per write, so a handler-level
// measurement counts the server's allocations and not a recorder's.
type discardWriter struct {
	hdr  http.Header
	code int
	n    int
	head [256]byte
}

func (w *discardWriter) Header() http.Header { return w.hdr }
func (w *discardWriter) WriteHeader(c int)   { w.code = c }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.n < len(w.head) {
		copy(w.head[w.n:], p)
	}
	w.n += len(p)
	return len(p), nil
}

func (w *discardWriter) body() string {
	if w.n < len(w.head) {
		return string(w.head[:w.n])
	}
	return string(w.head[:])
}

// serveDecode runs one POST /v1/decode through the handler tree.
func serveDecode(h http.Handler, w *discardWriter, stream []byte) {
	*w = discardWriter{hdr: w.hdr}
	clear(w.hdr)
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/decode", bytes.NewReader(stream)))
}

// TestHTTPDecodeMalformed feeds damaged bitstreams through the handler:
// every one must answer 400 with a media.ErrBitstream message and leave
// no pooled frame outstanding. Before the decoder became the only decode
// body, the six-task KPN job answered 500 for the three truncations —
// "vld: bitstream ended…" does not wrap media.ErrBitstream — and left 0,
// 2, 4, 6 frames of this clip outstanding after the first four requests;
// it answered 500 for the duplicated display index.
func TestHTTPDecodeMalformed(t *testing.T) {
	stream, _, _ := testStream(t, 96, 80, 9, func(c *media.CodecConfig) { c.GOPM = 3 })
	flip := func(at int, mask byte) []byte {
		b := bytes.Clone(stream)
		b[at] ^= mask
		return b
	}
	cases := []struct {
		name string
		body []byte
		hole bool // decodes cleanly, but into a display order with a hole
	}{
		{"truncated-20B", stream[:20], false},
		{"truncated-half", stream[:len(stream)/2], false},
		{"truncated-last-byte", stream[:len(stream)-1], false},
		{"flipped-byte", flip(len(stream)/2, 0xFF), false},
		// The first frame header starts at bit 83 (after the sequence
		// header): 16 marker bits, 2 type bits, then the 16-bit display
		// index, whose lowest bit is bit 116 — byte 14, mask 0x08. Setting
		// it makes frame 0 claim display slot 1: a duplicate and a hole.
		{"duplicate-display-index", flip(14, 0x08), true},
	}
	// The cases must be what they claim: past the synchronous header
	// check, and damaged the way their name says.
	for _, tc := range cases {
		if _, err := media.ParseSeqHeader(media.NewBitReader(tc.body)); err != nil {
			t.Fatalf("%s: rejected before admission: %v", tc.name, err)
		}
		res, err := media.Decode(tc.body)
		if !tc.hole && err == nil {
			t.Fatalf("%s: offline decoder accepts it", tc.name)
		}
		if tc.hole && (err != nil || res.DisplayFrames()[0] != nil) {
			t.Fatalf("%s: want a clean decode with display slot 0 empty, got err %v", tc.name, err)
		}
	}
	srv := New(Config{Workers: 1, CacheBytes: -1})
	defer srv.Shutdown(context.Background())
	w := &discardWriter{hdr: http.Header{}}
	for _, tc := range cases {
		serveDecode(srv.Handler(), w, tc.body)
		if w.code != http.StatusBadRequest || !strings.Contains(w.body(), media.ErrBitstream.Error()) {
			t.Errorf("%s: got %d %q, want 400 with %q", tc.name, w.code, w.body(), media.ErrBitstream)
		}
		if n := srv.pool.Outstanding(); n != 0 {
			t.Errorf("%s: %d pooled frames outstanding after the request", tc.name, n)
		}
	}
	// The pool must still serve a good request afterwards.
	serveDecode(srv.Handler(), w, stream)
	if w.code != http.StatusOK || srv.pool.Outstanding() != 0 {
		t.Errorf("good stream after the bad ones: %d, %d frames outstanding", w.code, srv.pool.Outstanding())
	}
}

// TestDecodePeakFrames pins the served decode's working set: the decoder
// streams into the response, so a 26-frame clip holds at most three
// pooled frames at once (the frame being decoded and its two
// references) for every GOP M, where collecting the clip before copying
// held all 26. A pool that starts empty allocates a frame only when
// none is free, so the frames it retains afterwards are the most the
// decode held at once.
func TestDecodePeakFrames(t *testing.T) {
	s := xcodeSched(t)
	for m := 1; m <= 4; m++ {
		stream, _, _ := testStream(t, 64, 48, 26, func(c *media.CodecConfig) { c.GOPM = m })
		ref, err := media.Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, f := range ref.DisplayFrames() {
			want = append(want, f.Pix...)
		}
		pool := media.NewSyncFramePool(0)
		j, err := NewDecodeJob(context.Background(), "t", stream, pool, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runSync(t, s, j)
		if err != nil || !bytes.Equal(res.Body, want) {
			t.Fatalf("M=%d: err %v, bytes match %v", m, err, bytes.Equal(res.Body, want))
		}
		if n := pool.Outstanding(); n != 0 {
			t.Errorf("M=%d: %d frames outstanding", m, n)
		}
		if n := pool.Retained(); n > 3 {
			t.Errorf("M=%d: the decode held %d pooled frames at once, want at most 3", m, n)
		}
	}
}

// TestEncodeCancelNoLeak cancels the one-task encode job at a spread of
// points: whatever the reorder window was holding (GOP M = 3 keeps B
// frames waiting for their backward reference) must be back in the pool,
// and a cancel that lands after completion must still yield the batch
// encoder's bytes. A guard against gross leaks only: the window holds
// frames for microseconds between two B pushes and is empty while a P
// frame is being coded, which is where a timed cancel nearly always
// lands.
func TestEncodeCancelNoLeak(t *testing.T) {
	_, cfg, frames := testStream(t, 96, 80, 18, func(c *media.CodecConfig) { c.GOPM = 3 })
	want, _, _, err := media.Encode(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	var raw []byte
	for _, f := range frames {
		raw = append(raw, f.Pix...)
	}
	s := xcodeSched(t)
	for _, delay := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 8 * time.Millisecond, time.Second} {
		pool := media.NewSyncFramePool(64)
		ctx, cancel := context.WithCancel(context.Background())
		j, err := NewEncodeJob(ctx, "t", cfg, raw, pool)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(delay):
		}
		cancel()
		<-j.Done()
		if n := pool.Outstanding(); n != 0 {
			t.Errorf("cancel at %v: %d pooled frames outstanding", delay, n)
		}
		if res, err := j.Result(); err == nil && !bytes.Equal(res.Body, want) {
			t.Errorf("cancel at %v: completed encode differs from the batch encoder", delay)
		} else if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("cancel at %v: unexpected error class: %v", delay, err)
		}
	}
}

// TestServingImportGraph states the tier rule as a fact of the import
// graph: the serving and cluster tiers (and their commands) build on the
// codec and the shared shell packages only — never on the simulator or
// the Kahn executor — so a change on that side cannot move a serving
// workload, and vice versa. The six-task Kahn decode lives on the other
// side of this line (root RunFunctionalDecode and the cycle-accurate
// mapping).
func TestServingImportGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list in -short mode")
	}
	out, err := exec.Command("go", "list", "-deps", "-f",
		"{{if not .Standard}}{{.ImportPath}} {{.Dir}}{{end}}",
		"eclipse/internal/serve", "eclipse/internal/cluster",
		"eclipse/cmd/eclipse-serve", "eclipse/cmd/eclipse-gateway").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	forbidden := map[string]bool{"eclipse": true}
	for _, p := range []string{"sim", "mem", "shell", "copro", "kpn", "config", "trace", "viz"} {
		forbidden["eclipse/internal/"+p] = true
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, dir, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		seen++
		// Open the directory so go's test cache keys this result on the
		// sources of packages this one does not import (the TestBenchmarkRig
		// idiom).
		if _, err := os.ReadDir(dir); err != nil {
			t.Fatal(err)
		}
		if forbidden[path] {
			t.Errorf("the serving tier depends on %s", path)
		}
	}
	if seen < 7 {
		t.Fatalf("go list reported %d packages; the check is not looking at the graph:\n%s", seen, out)
	}
}

// coldDecodeAllocBudget bounds the bytes allocated per cold QCIF
// 12-frame decode through the handler (cache off, pools warm): counted
// at 8.0 KiB/op, 8.7–9.0 KiB/op under -race, and the budget is the larger
// count plus 5 %. The request body, the 297 KiB response and the frames
// all come from pools, and the decode parses each macroblock straight
// into its coefficients, so what remains is per-request bookkeeping: the
// request, the job and its units, the response headers. While the decode
// kept a 4 KiB token arena it counted 13.3 and 14.1 KiB/op.
const coldDecodeAllocBudget = 9728 // 9.5 KiB

// TestColdDecodeAllocBudget is ROADMAP item 2a's pin: the allocation
// saving of the single decode body cannot rot silently.
func TestColdDecodeAllocBudget(t *testing.T) {
	stream, _, _ := testStream(t, 176, 144, 12, nil)
	srv := New(Config{Workers: 1, CacheBytes: -1})
	defer srv.Shutdown(context.Background())
	w := &discardWriter{hdr: http.Header{}}
	run := func(n int) {
		for i := 0; i < n; i++ {
			serveDecode(srv.Handler(), w, stream)
			if w.code != http.StatusOK || w.n != 12*176*144 {
				t.Fatalf("decode: status %d, %d bytes", w.code, w.n)
			}
		}
	}
	run(4) // warm the frame pool and the request- and response-buffer pools
	const ops = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(ops)
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / ops
	t.Logf("cold QCIF decode: %d B/op (budget %d)", perOp, coldDecodeAllocBudget)
	if perOp > coldDecodeAllocBudget {
		t.Errorf("cold QCIF decode allocates %d B/op, budget %d", perOp, coldDecodeAllocBudget)
	}
}

// TestColdTranscodeAllocBudget pins the bytes allocated per cold QCIF
// 26-frame N=13 M=3 transcode through the handler (cache off, pools
// warm) at one span and at two, so neither the span encoders'
// reconstruction frames and writers nor the stitcher can silently
// regrow. Counted at 85 KiB/op at one span and 163 KiB/op at two
// (87 and 180 KiB/op under -race); each budget is the larger count
// plus 5 %. While each span's decoder kept a 4 KiB token arena they
// counted 90 and 173 KiB/op (92 and 190 under -race). The span encoders' reconstruction frames come from the
// frame pool (they cost 144 and 280 KiB/op while each span allocated
// its two), so what remains per span is its output writer, sized from
// its input span, whose bytes become the response body; at two spans,
// also the GOP index and the one growth of the stitched output.
func TestColdTranscodeAllocBudget(t *testing.T) {
	stream, _, _ := testStream(t, 176, 144, 26, func(c *media.CodecConfig) {
		c.GOPN = 13
		c.GOPM = 3
	})
	for _, tc := range []struct {
		segs   int
		budget uint64
	}{{1, 92 << 10}, {2, 189 << 10}} {
		t.Run(spansName(tc.segs), func(t *testing.T) {
			srv := New(Config{Workers: tc.segs, CacheBytes: -1})
			defer srv.Shutdown(context.Background())
			w := &discardWriter{hdr: http.Header{}}
			run := func(n int) {
				for i := 0; i < n; i++ {
					*w = discardWriter{hdr: w.hdr}
					clear(w.hdr)
					srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/transcode?q=9", bytes.NewReader(stream)))
					if w.code != http.StatusOK || w.hdr.Get("X-Transcode-Segments") != strconv.Itoa(tc.segs) {
						t.Fatalf("transcode: status %d, %q spans", w.code, w.hdr.Get("X-Transcode-Segments"))
					}
				}
			}
			run(2) // warm the frame pool
			const ops = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(ops)
			runtime.ReadMemStats(&after)
			perOp := (after.TotalAlloc - before.TotalAlloc) / ops
			t.Logf("cold QCIF transcode, %d span(s): %d B/op (budget %d)", tc.segs, perOp, tc.budget)
			if perOp > tc.budget {
				t.Errorf("cold QCIF transcode at %d span(s) allocates %d B/op, budget %d", tc.segs, perOp, tc.budget)
			}
		})
	}
}
