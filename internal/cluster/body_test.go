package cluster

// The gateway's pooled bodies: parity with serve's request-body reader on
// the wire, the request body's lifetime against a transport that is still
// writing it after the handler has returned, and the pool's balance
// across the proxy's outcomes.

import (
	"bufio"
	"bytes"
	"context"
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

	"eclipse/internal/serve"
)

// TestGatewayReadBodyParity sends serve's TestReadBodyParity wire
// requests, parsed by net/http's own request reader, through the
// gateway's handler to an echoing backend. Each status must be the one
// serve answers, each 200 must carry the bytes sent, and a declared
// length the cap refuses must not size an allocation.
func TestGatewayReadBodyParity(t *testing.T) {
	const max = 64 << 10
	f := newFakeBackend(t)
	f.mode.Store("echo")
	g := newTestGateway(t, Config{MaxBodyBytes: max, MaxRetries: -1}, f.addr())
	forceUp(g)
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
		sent string // the body a 200 echoes
		want int    // serve's status for the same wire request
	}{
		{"exact-length", sized(20000, payload(20000)), payload(20000), http.StatusOK},
		{"empty", sized(0, ""), "", http.StatusOK},
		{"short", sized(20000, payload(9000)), "", http.StatusBadRequest},
		{"chunked", chunked(payload(20000)), payload(20000), http.StatusOK},
		{"chunked-at-cap", chunked(payload(max)), payload(max), http.StatusOK},
		{"chunked-over-cap", chunked(payload(max + 1)), "", http.StatusRequestEntityTooLarge},
		{"at-cap", sized(max, payload(max)), payload(max), http.StatusOK},
		{"one-over-cap", sized(max+1, payload(max+1)), "", http.StatusRequestEntityTooLarge},
		{"lying-length", sized(1<<40, payload(100)), "", http.StatusBadRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := http.ReadRequest(bufio.NewReader(strings.NewReader(c.wire)))
			if err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g.Handler().ServeHTTP(w, r)
			runtime.ReadMemStats(&after)
			if w.Code != c.want {
				t.Fatalf("status %d (%q), serve answers %d", w.Code, w.Body.String(), c.want)
			}
			if c.want == http.StatusOK && w.Body.String() != c.sent {
				t.Fatalf("backend echoed %d bytes, sent %d", w.Body.Len(), len(c.sent))
			}
			// The lying length reaches no backend, and its slab grows only
			// with the 100 bytes sent.
			if n := after.TotalAlloc - before.TotalAlloc; c.name == "lying-length" && n > 4*4<<10 {
				t.Fatalf("reading allocated %d bytes, bound %d", n, 4*4<<10)
			}
		})
	}
	waitBalanced(t, g, 0)
}

// waitBalanced waits until exactly want of the slabs g drew are still
// out of its pool: an upstream request body's stake drops when the
// transport closes it, which may come after the response.
func waitBalanced(t *testing.T, g *Gateway, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); g.bufs.Outstanding() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d slabs out of the gateway's pool, want %d", g.bufs.Outstanding(), want)
		}
	}
}

// earlyRelease serves decode the way the gateway's handler does with the
// L1 off, except that the request body goes back to the pool when the
// handler returns whatever the transport still holds: the fault the
// stakes exist to prevent.
func earlyRelease(g *Gateway) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf, _, err := g.bufs.ReadCapped(r.Body, r.ContentLength, g.cfg.MaxBodyBytes)
		if err != nil {
			http.Error(w, err.Error(), serve.BodyStatus(err))
			return
		}
		defer g.bufs.Put(buf) // the fault
		body := &reqBody{buf: buf, pool: &g.bufs}
		body.refs.Store(1 << 20) // no stake ever returns it
		p, _ := serve.ParseParams(serve.KindDecode, "")
		g.doUnshared(r.Context(), w, r, serve.KindDecode, p.Key(buf), body, time.Time{})
	})
}

// lateTransport is an upstream that answers a request carrying X-Early
// with 413 before it reads the body, and reads that body only after
// RoundTrip has returned, once resume is closed: RoundTripper allows a
// transport to close the body after RoundTrip returns, and net/http's
// own keeps writing a body the backend has not read yet. It reads
// through a replay from GetBody, closing the first body unread, as
// net/http does on a dead keep-alive connection, and sends what it read
// on got. Any other request it reads at once and answers 200.
type lateTransport struct {
	resume chan struct{}
	got    chan []byte
}

func (lt *lateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	status, msg := http.StatusOK, ""
	if req.Header.Get("X-Early") == "" {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	} else {
		replay, err := req.GetBody()
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		go func() {
			<-lt.resume
			b, _ := io.ReadAll(replay)
			replay.Close()
			lt.got <- b
		}()
		status, msg = http.StatusRequestEntityTooLarge, "too large\n"
	}
	return &http.Response{
		StatusCode:    status,
		Header:        http.Header{},
		Body:          io.NopCloser(strings.NewReader(msg)),
		ContentLength: int64(len(msg)),
		Request:       req,
	}, nil
}

// TestGatewayBodyLifetime is the pooled request body's lifetime check. An
// upstream answers 413 to a 3 MiB body before reading it and reads it
// only after the gateway's handler has returned; in between, a second
// request of the same size draws from the pool and fills its slab with
// another pattern. The upstream must read the first request's bytes, and
// every slab is back once it has closed the body. The negative control
// returns the body at handler return, which the upstream must catch.
func TestGatewayBodyLifetime(t *testing.T) {
	if got, want := lifetimeRound(t, nil); !bytes.Equal(got, want) {
		t.Fatalf("the upstream read %d bytes that differ from the first request's %d", len(got), len(want))
	}
	t.Run("negative-control", func(t *testing.T) {
		if raceDetector {
			t.Skip("an early release is a data race by construction; the race detector reports it instead")
		}
		if got, want := lifetimeRound(t, earlyRelease); bytes.Equal(got, want) {
			t.Fatal("a body returned while the upstream still read it went unnoticed")
		}
	})
}

// lifetimeRound sends the early-413 request and then the pool-reusing
// one through a fresh gateway, served by handler(g) when handler is
// non-nil, and returns what the upstream read of the first body and what
// it should have read.
func lifetimeRound(t *testing.T, handler func(*Gateway) http.Handler) (got, want []byte) {
	const size = 3 << 20
	pattern := func(seed int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i*seed + i>>11)
		}
		return b
	}
	first, second := pattern(7), pattern(13)
	lt := &lateTransport{resume: make(chan struct{}), got: make(chan []byte, 1)}
	g := newTestGateway(t, Config{MaxRetries: -1, Transport: lt}, "backend:1")
	forceUp(g)
	h := g.Handler()
	if handler != nil {
		h = handler(g)
	}
	send := func(body []byte, early bool, want int) {
		req := httptest.NewRequest("POST", "/v1/decode", bytes.NewReader(body))
		if early {
			req.Header.Set("X-Early", "1")
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != want {
			t.Fatalf("status %d, want %d", w.Code, want)
		}
	}
	send(first, true, http.StatusRequestEntityTooLarge)
	if handler == nil && g.bufs.Outstanding() != 1 {
		t.Fatalf("%d slabs out after the handler returned, want the body the upstream still reads", g.bufs.Outstanding())
	}
	send(second, false, http.StatusOK)
	close(lt.resume)
	got = <-lt.got
	if handler == nil {
		waitBalanced(t, g, 0)
	}
	return got, first
}

// TestGatewayBodyPoolBalance drives the proxy's outcomes with the L1 on
// (fill, hit, collapsed, over-cap stream, mid-stream 502, the gateway's
// own 413 and a backend's 413 before it reads the body) and checks after
// each that every slab the gateway drew is back in its pool, except the
// body of a flight leader's shared answer, which its followers may still
// be relaying.
func TestGatewayBodyPoolBalance(t *testing.T) {
	f := newFakeBackend(t)
	g := newTestGateway(t, Config{L1Bytes: 1 << 20, L1MaxObject: 4096, MaxBodyBytes: 64 << 10, MaxRetries: -1}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	post := func(body []byte, want int, xcache string) {
		t.Helper()
		resp, _ := l1Post(t, ts.URL, "/v1/decode", body, nil)
		if resp.StatusCode != want || (xcache != "" && resp.Header.Get(CacheHeader) != xcache) {
			t.Fatalf("status %d, X-Cache %q; want %d, %q", resp.StatusCode, resp.Header.Get(CacheHeader), want, xcache)
		}
	}
	f.mode.Store("echo")
	post([]byte("fill-me"), http.StatusOK, "")
	waitBalanced(t, g, 0)
	post([]byte("fill-me"), http.StatusOK, XCacheL1Hit)
	waitBalanced(t, g, 0)

	f.delay.Store(int64(30 * time.Millisecond))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/decode", "", strings.NewReader("storm"))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("storm: status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	f.delay.Store(0)
	if g.met.L1Collapsed.Load() == 0 {
		t.Fatal("no storm request collapsed onto the leader")
	}
	waitBalanced(t, g, 0)

	f.mode.Store("big")
	post([]byte("big-one"), http.StatusOK, "")
	waitBalanced(t, g, 0)
	f.mode.Store("midstream")
	post([]byte("doomed"), http.StatusBadGateway, "")
	waitBalanced(t, g, 0)
	post(make([]byte, 64<<10+1), http.StatusRequestEntityTooLarge, "")
	waitBalanced(t, g, 0)

	// A backend that refuses a body unread; the leader's shared answer
	// stays with its followers.
	f.mode.Store("refuse")
	post(make([]byte, 60<<10), http.StatusRequestEntityTooLarge, "")
	waitBalanced(t, g, 1)
}

// TestGatewayBodyTooLargeClosesConnection is serve's
// TestBodyTooLargeClosesConnection at the gateway, on a real socket: the
// 413 for a body past the cap says "Connection: close" on a kept-alive
// connection, and the client's next request opens a new one.
func TestGatewayBodyTooLargeClosesConnection(t *testing.T) {
	const max = 1 << 10
	f := newFakeBackend(t)
	g := newTestGateway(t, Config{MaxBodyBytes: max, MaxRetries: -1}, f.addr())
	forceUp(g)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	for i, c := range []struct {
		size   int
		status int
		reused bool
	}{
		{16, http.StatusOK, false},
		{max + 1, http.StatusRequestEntityTooLarge, true},
		{16, http.StatusOK, false},
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
	if got := f.hits.Load(); got != 2 {
		t.Fatalf("backend saw %d requests, want 2", got)
	}
}
