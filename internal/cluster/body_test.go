package cluster

// The gateway's pooled bodies: the request body's lifetime against a
// transport still writing it after the handler has returned, and the
// pool's balance across the proxy's outcomes (on the wire: front_test.go).

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipse/internal/serve"
)

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
		serve.Accept(w, r, serve.KindDecode, &g.bufs, g.cfg.MaxBodyBytes, func(ctx context.Context, p serve.Params, buf []byte) {
			defer g.bufs.Put(buf) // the fault
			body := &reqBody{buf: buf, pool: &g.bufs}
			body.refs.Store(1 << 20) // no stake ever returns it
			g.doUnshared(ctx, w, r, serve.KindDecode, p.Key(buf), body, time.Time{})
		})
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
