package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eclipse/internal/media"
)

// testStream encodes a synthetic sequence and returns the bitstream and
// the exact config used, so tests can reproduce server output offline.
func testStream(t *testing.T, w, h, frames int, mut func(*media.CodecConfig)) ([]byte, media.CodecConfig, []*media.Frame) {
	t.Helper()
	src := media.DefaultSource(w, h)
	src.Seed = 7
	fr := media.NewSource(src).Frames(frames)
	cfg := media.DefaultCodec(w, h)
	if mut != nil {
		mut(&cfg)
	}
	stream, _, _, err := media.Encode(cfg, fr)
	if err != nil {
		t.Fatal(err)
	}
	return stream, cfg, fr
}

// ctxGateBody adapts a plain loop body to the scheduler's contract: it
// parks at the gate before every step. The job poisons its gate when its
// context dies (Submit), so a job parked at a closed gate still unwinds
// on Cancel / hard-stop.
func ctxGateBody(step func() (bool, error)) func(ctx context.Context, gate *Gate) (Result, error) {
	return func(ctx context.Context, gate *Gate) (Result, error) {
		for {
			if err := gate.Wait(); err != nil {
				return Result{}, err
			}
			select {
			case <-ctx.Done():
				return Result{}, ctx.Err()
			default:
			}
			done, err := step()
			if err != nil {
				return Result{}, err
			}
			if done {
				return Result{Body: []byte("ok")}, nil
			}
		}
	}
}

// slowJob needs roughly d of service time, preemptible every ~1ms.
func slowJob(tenant string, d time.Duration) *Job {
	deadline := time.Now().Add(d)
	return NewJob(tenant, KindDecode, context.Background(), ctxGateBody(func() (bool, error) {
		time.Sleep(time.Millisecond)
		return !time.Now().Before(deadline), nil
	}))
}

// blockedJob parks (preemptibly) until release is closed.
func blockedJob(tenant string, release <-chan struct{}) *Job {
	return NewJob(tenant, KindDecode, context.Background(), ctxGateBody(func() (bool, error) {
		select {
		case <-release:
			return true, nil
		case <-time.After(time.Millisecond):
			return false, nil
		}
	}))
}

// TestAdmissionTable is the GetSpace table test: with the queue held
// full by blocked jobs, exactly cap submissions are admitted and the
// rest are rejected with 429-shaped QueueFullErrors.
func TestAdmissionTable(t *testing.T) {
	cases := []struct {
		name        string
		cap         int
		submit      int
		wantRejects int
	}{
		{"full-plus-one", 2, 3, 1},
		{"exactly-full", 3, 3, 0},
		{"heavily-over", 1, 5, 4},
		{"deep-queue", 4, 6, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			met := NewMetrics()
			s := NewScheduler(Config{
				Workers:   1,
				BaseSlice: time.Millisecond,
				Tenants:   []TenantConfig{{Name: "bulk", Weight: 1, QueueCap: tc.cap}},
			}, met)
			release := make(chan struct{})
			var rejects int
			for i := 0; i < tc.submit; i++ {
				err := s.Submit(blockedJob("bulk", release))
				if err == nil {
					continue
				}
				qf, ok := err.(*QueueFullError)
				if !ok {
					t.Fatalf("submit %d: got %v, want *QueueFullError", i, err)
				}
				if qf.Tenant != "bulk" || qf.Cap != tc.cap {
					t.Fatalf("reject carries %q/%d, want bulk/%d", qf.Tenant, qf.Cap, tc.cap)
				}
				if qf.RetryAfter < time.Second {
					t.Fatalf("RetryAfter %v below the 1s floor", qf.RetryAfter)
				}
				rejects++
			}
			if rejects != tc.wantRejects {
				t.Fatalf("got %d rejects, want %d", rejects, tc.wantRejects)
			}
			if got := met.Rejects.Load(); got != uint64(tc.wantRejects) {
				t.Fatalf("metrics counted %d rejects, want %d", got, tc.wantRejects)
			}
			close(release)
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNoStarvation checks the weighted-round-robin guarantee: a short
// interactive job admitted behind a saturated bulk tenant completes long
// before the bulk backlog, because the worker preempts bulk slices.
func TestNoStarvation(t *testing.T) {
	met := NewMetrics()
	s := NewScheduler(Config{
		Workers:   1,
		BaseSlice: 2 * time.Millisecond,
		Tenants:   []TenantConfig{{Name: "bulk", Weight: 1, QueueCap: 2}},
	}, met)
	b1 := slowJob("bulk", 100*time.Millisecond)
	b2 := slowJob("bulk", 100*time.Millisecond)
	for _, j := range []*Job{b1, b2} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	// Queue is at capacity: a third bulk job is rejected.
	if err := s.Submit(slowJob("bulk", time.Millisecond)); err == nil {
		t.Fatal("third bulk job admitted past the queue cap")
	}
	// The idle tenant's short job must complete while 200ms of bulk
	// backlog is still in flight.
	short := slowJob("interactive", 4*time.Millisecond)
	if err := s.Submit(short); err != nil {
		t.Fatal(err)
	}
	select {
	case <-short.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("interactive job starved behind the bulk backlog")
	}
	if _, err := short.Result(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b2.Done():
		t.Fatal("bulk backlog finished before the interactive job: preemption untested")
	default:
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b1.Preempts()+b2.Preempts() == 0 {
		t.Fatal("bulk jobs were never preempted")
	}
	for _, ts := range s.SnapshotTenants() {
		if ts.Name == "bulk" && ts.Preempts == 0 {
			t.Fatal("tenant table recorded no bulk preemptions")
		}
	}
}

// TestGracefulDrain checks the soft path: Drain with no deadline lets
// every admitted job finish, then stops the workers; later submissions
// are refused with ErrDraining.
func TestGracefulDrain(t *testing.T) {
	met := NewMetrics()
	s := NewScheduler(Config{Workers: 2, BaseSlice: 2 * time.Millisecond}, met)
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j := slowJob(fmt.Sprintf("t%d", i%2), 10*time.Millisecond)
		jobs = append(jobs, j)
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d not finished after drain", i)
		}
		if _, err := j.Result(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if err := s.Submit(slowJob("late", time.Millisecond)); err != ErrDraining {
		t.Fatalf("post-drain submit = %v, want ErrDraining", err)
	}
	if got := s.StateString(); got != "stopped" {
		t.Fatalf("state %q after drain, want stopped", got)
	}
}

// TestDrainHardStop checks the deadline path: when the drain budget
// expires, queued jobs fail with ErrDraining and running jobs are
// cancelled — nothing hangs, every submitter unblocks.
func TestDrainHardStop(t *testing.T) {
	met := NewMetrics()
	s := NewScheduler(Config{
		Workers:   1,
		BaseSlice: time.Millisecond,
		Tenants:   []TenantConfig{{Name: "stuck", Weight: 1, QueueCap: 4}},
	}, met)
	release := make(chan struct{}) // never closed: jobs block forever
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j := blockedJob("stuck", release)
		jobs = append(jobs, j)
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("job %d still hung after hard stop", i)
		}
		if _, err := j.Result(); err == nil {
			t.Fatalf("job %d reported success after hard stop", i)
		}
	}
	if s.Admitted() != 0 {
		t.Fatalf("%d jobs still admitted after hard stop", s.Admitted())
	}
}

// post sends a request with the given tenant and returns the response.
func post(t *testing.T, url, tenant string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
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

// postLate is post with the body sent wait after the headers: the
// request's length is declared, so the client flushes its headers
// without probing the body first.
func postLate(t *testing.T, url string, body []byte, hdr map[string]string, wait time.Duration) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url, &lateReader{r: bytes.NewReader(body), wait: wait})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// lateReader sleeps for wait before its first read.
type lateReader struct {
	r    io.Reader
	wait time.Duration
}

func (l *lateReader) Read(p []byte) (int, error) {
	time.Sleep(l.wait)
	l.wait = 0
	return l.r.Read(p)
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHTTPEndToEnd drives the three media endpoints over HTTP and
// verifies the responses are bit-identical to the offline codec.
func TestHTTPEndToEnd(t *testing.T) {
	srv := New(Config{Workers: 2, BaseSlice: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	stream, _, frames := testStream(t, 96, 80, 9, nil)

	t.Run("decode", func(t *testing.T) {
		resp := post(t, ts.URL+"/v1/decode", "alice", stream, nil)
		body := readAll(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("decode: %d %s", resp.StatusCode, body)
		}
		ref, err := media.Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, f := range ref.DisplayFrames() {
			want = append(want, f.Pix...)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("decode body differs from the reference decoder (%d vs %d bytes)", len(body), len(want))
		}
		if got := resp.Header.Get("X-Seq-Frames"); got != "9" {
			t.Fatalf("X-Seq-Frames = %q, want 9", got)
		}
	})

	t.Run("encode", func(t *testing.T) {
		var raw []byte
		for _, f := range frames {
			raw = append(raw, f.Pix...)
		}
		resp := post(t, ts.URL+"/v1/encode?w=96&h=80&q=8&gopm=3", "alice", raw, nil)
		body := readAll(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("encode: %d %s", resp.StatusCode, body)
		}
		cfg := media.DefaultCodec(96, 80)
		cfg.Q = 8
		want, _, _, err := media.Encode(cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("encode body differs from the batch encoder (%d vs %d bytes)", len(body), len(want))
		}
	})

	t.Run("transcode", func(t *testing.T) {
		resp := post(t, ts.URL+"/v1/transcode?q=9", "bob", stream, nil)
		body := readAll(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("transcode: %d %s", resp.StatusCode, body)
		}
		ref, err := media.Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		cfg := TranscodeConfig(ref.Seq, 9)
		want, _, _, err := media.Encode(cfg, ref.DisplayFrames())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("transcode body differs from the offline re-encode (%d vs %d bytes)", len(body), len(want))
		}
		if got := resp.Header.Get("X-Seq-Q"); got != "9" {
			t.Fatalf("X-Seq-Q = %q, want 9", got)
		}
	})
}

// TestHTTPAdmission saturates one tenant's queue and checks the 429 path
// (with Retry-After) while another tenant's request still succeeds.
func TestHTTPAdmission(t *testing.T) {
	srv := New(Config{
		Workers:   1,
		BaseSlice: time.Millisecond,
		Tenants:   []TenantConfig{{Name: "bulk", Weight: 1, QueueCap: 1}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	release := make(chan struct{})
	if err := srv.Scheduler().Submit(blockedJob("bulk", release)); err != nil {
		t.Fatal(err)
	}
	defer close(release)

	stream, _, _ := testStream(t, 48, 32, 3, nil)
	resp := post(t, ts.URL+"/v1/decode", "bulk", stream, nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	resp = post(t, ts.URL+"/v1/decode", "fast", stream, nil)
	body := readAll(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("idle tenant got %d %s, want 200", resp.StatusCode, body)
	}
}

// TestHTTPErrors covers the client-error mapping: malformed bitstreams,
// bad parameters, and deadline overruns. The deadline case sends its body
// 20 ms after its headers, so its 1 ms budget has run out however fast
// the decode is (the whole 24-frame decode takes well under 1 ms).
func TestHTTPErrors(t *testing.T) {
	srv := New(Config{Workers: 1, BaseSlice: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	stream, _, _ := testStream(t, 96, 80, 24, nil)
	cases := []struct {
		name string
		url  string
		body []byte
		hdr  map[string]string
		want int
		wait time.Duration // before the body is sent
	}{
		{"bad-magic", "/v1/decode", []byte("not a bitstream"), nil, 400, 0},
		{"encode-no-dims", "/v1/encode", make([]byte, 96*80), nil, 400, 0},
		{"encode-bad-plane", "/v1/encode?w=96&h=80", make([]byte, 100), nil, 400, 0},
		{"transcode-no-q", "/v1/transcode", stream, nil, 400, 0},
		{"transcode-bad-q", "/v1/transcode?q=99", stream, nil, 400, 0},
		{"bad-timeout-header", "/v1/decode", stream, map[string]string{"X-Timeout-Ms": "soon"}, 400, 0},
		{"deadline", "/v1/decode", stream, map[string]string{"X-Timeout-Ms": "1"}, 504, 20 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			if tc.wait == 0 {
				resp = post(t, ts.URL+tc.url, "", tc.body, tc.hdr)
			} else {
				resp = postLate(t, ts.URL+tc.url, tc.body, tc.hdr, tc.wait)
			}
			body := readAll(t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("got %d %s, want %d", resp.StatusCode, body, tc.want)
			}
		})
	}
}

// TestHTTPBodyTooLarge checks the body cap on every media endpoint: one
// byte over MaxBodyBytes is 413, and exactly MaxBodyBytes is read and
// judged on its content (an all-zero plane encodes; it decodes and
// transcodes to 400).
func TestHTTPBodyTooLarge(t *testing.T) {
	const max = 16 * 16
	srv := New(Config{Workers: 1, MaxBodyBytes: max, CacheBytes: -1})
	defer srv.Shutdown(context.Background())
	for _, url := range []string{"/v1/decode", "/v1/encode?w=16&h=16", "/v1/transcode?q=9"} {
		for _, n := range []int{max, max + 1} {
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", url, bytes.NewReader(make([]byte, n))))
			if tooBig := w.Code == http.StatusRequestEntityTooLarge; tooBig != (n > max) {
				t.Errorf("%s with a %d-byte body (cap %d): status %d", url, n, max, w.Code)
			}
		}
	}
}

// TestHTTPObservability smoke-tests /healthz, /varz and /metrics, then
// verifies shutdown flips readiness and refuses new work with 503, a key
// the cache holds included.
func TestHTTPObservability(t *testing.T) {
	srv := New(Config{Workers: 1, BaseSlice: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stream, _, _ := testStream(t, 48, 32, 3, nil)
	resp := post(t, ts.URL+"/v1/decode", "alice", stream, nil)
	readAll(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("warmup decode: %d", resp.StatusCode)
	}
	resp = post(t, ts.URL+"/v1/decode", "alice", stream, nil)
	readAll(t, resp)
	if resp.Header.Get("X-Cache") != CacheHit.String() {
		t.Fatalf("second decode: X-Cache %q, want a hit, so the key is resident at the drain", resp.Header.Get("X-Cache"))
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, hz); hz.StatusCode != 200 || !strings.Contains(string(body), "running") {
		t.Fatalf("healthz: %d %q", hz.StatusCode, body)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, rz); rz.StatusCode != 200 || !strings.Contains(string(body), "running") {
		t.Fatalf("readyz: %d %q", rz.StatusCode, body)
	}
	if rz.Header.Get(DrainingHeader) != "" {
		t.Fatalf("running readyz must not carry %s", DrainingHeader)
	}

	vz, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(readAll(t, vz), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != "running" || snap.Workers != 1 {
		t.Fatalf("varz snapshot %+v", snap)
	}
	var decoded *KindSnapshot
	for i := range snap.Kinds {
		if snap.Kinds[i].Kind == "decode" {
			decoded = &snap.Kinds[i]
		}
	}
	if decoded == nil || decoded.Requests != 1 || decoded.P50Ms <= 0 {
		t.Fatalf("varz decode row %+v", decoded)
	}

	mz, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtext := string(readAll(t, mz))
	for _, want := range []string{
		`eclipse_serve_requests_total{kind="decode"} 1`,
		`eclipse_serve_latency_seconds_count{kind="decode"} 1`,
		`eclipse_serve_queue_depth{tenant="alice"} 0`,
		"eclipse_serve_uptime_seconds",
	} {
		if !strings.Contains(mtext, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, mtext)
		}
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Liveness stays 200 through (and past) the drain; readiness flips to
	// 503 with the draining marker so a gateway stops routing here.
	hz2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, hz2)
	if hz2.StatusCode != 200 {
		t.Fatalf("healthz after shutdown: %d, want 200 (liveness, not readiness)", hz2.StatusCode)
	}
	rz2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, rz2)
	if rz2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: %d, want 503", rz2.StatusCode)
	}
	if rz2.Header.Get(DrainingHeader) != "1" {
		t.Fatalf("draining readyz must carry %s: 1, got %q", DrainingHeader, rz2.Header.Get(DrainingHeader))
	}
	if rz2.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz must carry Retry-After")
	}
	resp = post(t, ts.URL+"/v1/decode", "alice", stream, nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("decode after shutdown: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(DrainingHeader) != "1" {
		t.Fatalf("draining 503 must carry %s: 1", DrainingHeader)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 must carry Retry-After")
	}
}
