package serve

// The pooled request-body reader: parity with the io.ReadAll over
// http.MaxBytesReader it replaced, and the safety of returning each body
// to the pool once its handler's dispatch has returned.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipse/internal/media"
)

// raceDetector is set by race_test.go when the race detector is on.
var raceDetector bool

// TestReadBodyParity runs the pooled reader and the io.ReadAll over
// http.MaxBytesReader it replaced on the same wire requests, parsed by
// net/http's own request reader so Content-Length, a short body and
// chunked framing behave as on a live connection. Status and bytes must
// agree, and a Content-Length above the cap must not size an
// allocation.
func TestReadBodyParity(t *testing.T) {
	const max = 64 << 10
	srv := New(Config{Workers: 1, MaxBodyBytes: max, CacheBytes: -1})
	defer srv.Shutdown(context.Background())
	payload := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131 + i>>9)
		}
		return string(b)
	}
	sized := func(cl int64, body string) string {
		return "POST /v1/decode HTTP/1.1\r\nHost: x\r\nContent-Length: " +
			strconv.FormatInt(cl, 10) + "\r\n\r\n" + body
	}
	chunked := func(body string) string {
		var b strings.Builder
		b.WriteString("POST /v1/decode HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n")
		for len(body) > 0 {
			n := min(len(body), 3000)
			fmt.Fprintf(&b, "%x\r\n%s\r\n", n, body[:n])
			body = body[n:]
		}
		b.WriteString("0\r\n\r\n")
		return b.String()
	}
	for _, c := range []struct {
		name string
		wire string
		want int
	}{
		{"exact-length", sized(20000, payload(20000)), http.StatusOK},
		{"empty", sized(0, ""), http.StatusOK},
		{"short", sized(20000, payload(9000)), http.StatusBadRequest},
		{"chunked", chunked(payload(20000)), http.StatusOK},
		{"chunked-at-cap", chunked(payload(max)), http.StatusOK},
		{"chunked-over-cap", chunked(payload(max + 1)), http.StatusRequestEntityTooLarge},
		{"at-cap", sized(max, payload(max)), http.StatusOK},
		{"one-over-cap", sized(max+1, payload(max+1)), http.StatusRequestEntityTooLarge},
		{"lying-length", sized(1<<40, payload(100)), http.StatusBadRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			request := func() *http.Request {
				r, err := http.ReadRequest(bufio.NewReader(strings.NewReader(c.wire)))
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			status := func(err error) int {
				if err != nil {
					return BodyStatus(err)
				}
				return http.StatusOK
			}
			old, oldErr := io.ReadAll(http.MaxBytesReader(httptest.NewRecorder(), request().Body, max))
			r := request()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := srv.readBody(httptest.NewRecorder(), r)
			runtime.ReadMemStats(&after)
			defer reqBufs.Put(got)
			if s, o := status(err), status(oldErr); s != o || s != c.want {
				t.Fatalf("status %d (err %v), io.ReadAll path %d (err %v), want %d", s, err, o, oldErr, c.want)
			}
			if err == nil && !bytes.Equal(got, old) {
				t.Fatalf("read %d bytes, io.ReadAll path %d, contents differ", len(got), len(old))
			}
			// The slab for a body the cap admits rounds up to 2·(cap+1);
			// anything near the declared 1 TiB would be far above it. A
			// declared length above the cap reserves nothing for it, so
			// the lying one's slab grows only with the 100 bytes sent.
			bound := uint64(4 * max)
			if c.name == "lying-length" {
				bound = 4 * bodyChunk
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > bound {
				t.Fatalf("reading allocated %d bytes, bound %d", n, bound)
			}
		})
	}
}

// reuseClip is one distinct bitstream and its offline-codec answers.
type reuseClip struct {
	stream, raw, xcode []byte
}

// reuseClips encodes n distinct 26-frame N=13 M=3 clips, so a transcode
// on two workers runs as two spans, and their offline answers at q.
func reuseClips(t *testing.T, n, q int) []reuseClip {
	t.Helper()
	clips := make([]reuseClip, n)
	for i := range clips {
		src := media.DefaultSource(96, 80)
		src.Seed = int64(100 + i)
		cfg := media.DefaultCodec(96, 80)
		cfg.GOPN, cfg.GOPM = 13, 3
		stream, _, _, err := media.Encode(cfg, media.NewSource(src).Frames(26))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := media.Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		c := reuseClip{stream: stream}
		for _, f := range ref.DisplayFrames() {
			c.raw = append(c.raw, f.Pix...)
		}
		if c.xcode, _, _, err = media.Encode(TranscodeConfig(ref.Seq, q), ref.DisplayFrames()); err != nil {
			t.Fatal(err)
		}
		clips[i] = c
	}
	return clips
}

// reusePost sends one request and returns its status, X-Cache and body;
// a transport error comes back as err.
func reusePost(ctx context.Context, client *http.Client, url, tenant string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), b, err
}

// reuseMix sends every clip's decode and q=9 transcode from both tenants
// at once and returns one error per response that is not 200 with the
// offline codec's bytes.
func reuseMix(client *http.Client, base string, clips []reuseClip) []error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	for _, tenant := range []string{"gold", "bronze"} {
		for i, c := range clips {
			for _, rq := range []struct {
				path string
				want []byte
			}{{"/v1/decode", c.raw}, {"/v1/transcode?q=9", c.xcode}} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					code, _, got, err := reusePost(context.Background(), client, base+rq.path, tenant, c.stream)
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("status %d: %.80s", code, got)
					} else if err == nil && !bytes.Equal(got, rq.want) {
						err = errors.New("bytes differ from the offline codec")
					}
					if err != nil {
						mu.Lock()
						errs = append(errs, fmt.Errorf("%s clip %d %s: %w", tenant, i, rq.path, err))
						mu.Unlock()
					}
				}()
			}
		}
	}
	wg.Wait()
	return errs
}

// reuseServer is two tenants on two workers under a 1 ms slice, gold
// with the result cache and bronze without, so bodies are read, parked
// behind preempted jobs, shared by collapsed flights and returned while
// other requests are still running.
func reuseServer() *Server {
	return New(Config{
		Workers:    2,
		BaseSlice:  time.Millisecond,
		CacheBytes: 8 << 20,
		Tenants: []TenantConfig{
			{Name: "gold", Weight: 2, QueueCap: 32, Cache: CacheOn},
			{Name: "bronze", Weight: 1, QueueCap: 32, Cache: CacheOff},
		},
	})
}

// TestRequestBodyReuse is the pooled request body's safety check: two
// tenants send distinct decode and transcode bodies concurrently, one
// client cancels mid-transcode and a follower collapses onto a cached
// leader, while every body goes back to the pool as its handler's
// dispatch returns. Every 200 must be the offline codec's bytes, and
// afterwards no frame is out of the pool, no flight is open and no
// goroutine is left. The negative control returns each body before
// dispatch, which the mix must catch.
func TestRequestBodyReuse(t *testing.T) {
	clips := reuseClips(t, 3, 9)
	base := runtime.NumGoroutine()
	srv := reuseServer()
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{}}

	// A client that gives up once its transcode is admitted, while the
	// mix below reads its own bodies.
	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		code, _, got, err := reusePost(ctx, client, ts.URL+"/v1/transcode?q=9", "bronze", clips[0].stream)
		if err == nil && (code != http.StatusOK || !bytes.Equal(got, clips[0].xcode)) {
			err = fmt.Errorf("status %d, bytes match %v", code, bytes.Equal(got, clips[0].xcode))
		}
		gaveUp <- err
	}()
	for srv.sched.Admitted() == 0 && len(gaveUp) == 0 { // it may finish before a poll sees it
		time.Sleep(50 * time.Microsecond)
	}
	mix := make(chan []error, 1)
	go func() { mix <- reuseMix(client, ts.URL, clips) }()
	cancel()
	if err := <-gaveUp; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled transcode: %v", err)
	}
	for _, err := range <-mix {
		t.Error(err)
	}
	checkCollapse(t, srv, client, ts.URL, clips[1])

	ts.Close()
	client.CloseIdleConnections()
	srv.Shutdown(context.Background())
	if n := srv.pool.Outstanding(); n != 0 {
		t.Errorf("%d frames outstanding", n)
	}
	if n := srv.cache.flights.Len(); n != 0 {
		t.Errorf("%d flights open", n)
	}
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatalf("%d goroutines after shutdown, %d before the server started", runtime.NumGoroutine(), base)
		}
	}

	t.Run("negative-control", func(t *testing.T) {
		if raceDetector {
			t.Skip("an early release is a data race by construction; the race detector reports it instead")
		}
		srv := reuseServer()
		defer srv.Shutdown(context.Background())
		ts := httptest.NewServer(earlyRelease(srv))
		defer ts.Close()
		for round := 1; ; round++ {
			if errs := reuseMix(client, ts.URL, clips); len(errs) > 0 {
				t.Logf("round %d: %d of %d responses wrong, e.g. %v", round, len(errs), 4*len(clips), errs[0])
				return
			}
			if round == 5 {
				t.Fatal("bodies returned before dispatch went unnoticed in 5 rounds")
			}
		}
	})
}

// checkCollapse sends a leader and, once its flight is open, a follower
// for the same fresh transcode key on the caching tenant, until a
// follower is served as collapsed; both answers must be the offline
// codec's bytes. Each try uses a new q, so its key is not yet cached.
func checkCollapse(t *testing.T, srv *Server, client *http.Client, base string, c reuseClip) {
	t.Helper()
	ref, err := media.Decode(c.stream)
	if err != nil {
		t.Fatal(err)
	}
	for q := 10; q < 15; q++ {
		want, _, _, err := media.Encode(TranscodeConfig(ref.Seq, q), ref.DisplayFrames())
		if err != nil {
			t.Fatal(err)
		}
		url := base + "/v1/transcode?q=" + strconv.Itoa(q)
		key := transcodeKey(q, c.stream)
		type answer struct {
			code  int
			cache string
			body  []byte
			err   error
		}
		lead := make(chan answer, 1)
		go func() {
			var a answer
			a.code, a.cache, a.body, a.err = reusePost(context.Background(), client, url, "gold", c.stream)
			lead <- a
		}()
		// A leader that ends before a poll sees its flight leaves this
		// try a cache hit, not a hang.
		for _, open := srv.cache.flights.Waiters(key); !open && len(lead) == 0; _, open = srv.cache.flights.Waiters(key) {
			time.Sleep(50 * time.Microsecond)
		}
		var f answer
		f.code, f.cache, f.body, f.err = reusePost(context.Background(), client, url, "gold", c.stream)
		l := <-lead
		for _, a := range []answer{l, f} {
			if a.err != nil || a.code != http.StatusOK || !bytes.Equal(a.body, want) {
				t.Fatalf("q=%d %s: status %d, err %v, bytes match %v", q, a.cache, a.code, a.err, bytes.Equal(a.body, want))
			}
		}
		if f.cache == CacheCollapsed.String() {
			return
		}
	}
	t.Error("no follower collapsed onto its leader in 5 tries")
}

// earlyRelease serves decode and q=9 transcode the way the media
// handlers do, except that each body goes back to the pool before
// dispatch instead of after it: the fault the pooled reader must not
// have.
func earlyRelease(s *Server) http.Handler {
	mux := http.NewServeMux()
	for _, path := range []string{"/v1/decode", "/v1/transcode"} {
		mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
			body, err := s.readBody(w, r)
			if err != nil {
				httpError(w, BodyStatus(err), err)
				return
			}
			reqBufs.Put(body) // the fault: the job below still reads body
			tenant := tenantOf(r)
			j, key := (*Job)(nil), DecodeKey(body)
			if path == "/v1/decode" {
				j, err = NewDecodeJob(r.Context(), tenant, body, s.pool, 1)
			} else {
				j, err = NewTranscodeJobSegmented(r.Context(), tenant, body, 9, s.pool, 1, 1, s.cfg.Workers, s.met)
				key = transcodeKey(9, body)
			}
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			s.dispatch(w, r, r.Context(), tenant, key, j)
		})
	}
	return mux
}

// TestBodyTooLargeClosesConnection runs on a real socket: a body past
// the cap is answered 413 with "Connection: close" on a connection the
// request before it kept alive, so the unread rest of the body is never
// parsed as a request, and the client's next request opens a new
// connection.
func TestBodyTooLargeClosesConnection(t *testing.T) {
	const max = 1 << 10
	srv := New(Config{Workers: 1, MaxBodyBytes: max, CacheBytes: -1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i, c := range []struct {
		size   int
		status int // 16 zero bytes are not a bitstream
		reused bool
	}{
		{16, http.StatusBadRequest, false},
		{max + 1, http.StatusRequestEntityTooLarge, true},
		{16, http.StatusBadRequest, false},
	} {
		var reused bool
		trace := &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) { reused = ci.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			"POST", ts.URL+"/v1/decode", bytes.NewReader(make([]byte, c.size)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		tooBig := c.status == http.StatusRequestEntityTooLarge
		if resp.StatusCode != c.status || resp.Close != tooBig || reused != c.reused {
			t.Fatalf("request %d (%d bytes): status %d, Connection %q, reused %v; want %d, close %v, reused %v",
				i, c.size, resp.StatusCode, resp.Header.Get("Connection"), reused, c.status, tooBig, c.reused)
		}
	}
}
