package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"eclipse"
	"eclipse/internal/media"
	"eclipse/internal/serve"
)

// xcodeQ is the target quantizer of every transcode request.
const xcodeQ = 9

// clipSpec describes one generated clip. Clips are media.NewSource sequences
// encoded with the offline codec; the program under test only ever receives
// the resulting bytes.
type clipSpec struct {
	w, h, frames int
	gopN, gopM   int
}

type clip struct {
	stream []byte // the ECL1 bitstream sent as request body
	raw    []byte // expected /v1/decode response: display-order luma planes
	xcode  []byte // expected /v1/transcode?q=xcodeQ response; nil unless built
}

// clipSeed derives clip i's source seed; clip 0 of -seed 1 is the paper's
// Fig. 10 sequence (Seed 1), which pins its cycle count.
func clipSeed(seed int64, i int) int64 { return seed + 7919*int64(i) }

func encodeClip(sp clipSpec, seed int64) ([]byte, error) {
	src := media.DefaultSource(sp.w, sp.h)
	src.Seed = seed
	cfg := media.DefaultCodec(sp.w, sp.h)
	cfg.GOPN, cfg.GOPM = sp.gopN, sp.gopM
	stream, _, _, err := media.Encode(cfg, media.NewSource(src).Frames(sp.frames))
	return stream, err
}

// makeClip generates a clip and the offline-codec references its served
// responses are compared with byte for byte.
func makeClip(sp clipSpec, seed int64, withXcode bool) (*clip, error) {
	stream, err := encodeClip(sp, seed)
	if err != nil {
		return nil, err
	}
	ref, err := media.Decode(stream)
	if err != nil {
		return nil, err
	}
	c := &clip{stream: stream}
	frames := ref.DisplayFrames()
	for _, f := range frames {
		c.raw = append(c.raw, f.Pix...)
	}
	if withXcode {
		c.xcode, _, _, err = media.Encode(serve.TranscodeConfig(ref.Seq, xcodeQ), frames)
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// makeClips builds n clips, `per` of them to a set-up step and those on every
// CPU at once: generating inputs is not what the benchmark studies.
func makeClips(step stepFn, n, per int, gen func(i int) (*clip, error)) ([]*clip, error) {
	clips := make([]*clip, n)
	for lo := 0; lo < n; lo += per {
		if err := step(func() error {
			_, err := eclipse.ParallelMap(clips[lo:min(lo+per, n)], 0, func(i int, _ *clip) (struct{}, error) {
				c, err := gen(lo + i)
				clips[lo+i] = c
				return struct{}{}, err
			})
			return err
		}); err != nil {
			return nil, err
		}
	}
	return clips, nil
}

// A request is one served operation and the bytes it must return.
type request struct {
	path   string // "/v1/decode" or "/v1/transcode?q=9"
	tenant string // X-Tenant, "" for the default tenant
	clip   *clip
	want   []byte
}

func decodeReq(c *clip, tenant string) request {
	return request{path: "/v1/decode", tenant: tenant, clip: c, want: c.raw}
}

func xcodeReq(c *clip, tenant string) request {
	return request{path: fmt.Sprintf("/v1/transcode?q=%d", xcodeQ), tenant: tenant, clip: c, want: c.xcode}
}

// flipByte corrupts an expected output for -selfcheck. It copies first:
// decode and transcode requests of one clip may share the slice.
func flipByte(want []byte) []byte {
	out := append([]byte(nil), want...)
	out[len(out)/2] ^= 0x5a
	return out
}

// httpConn is one client: one keep-alive connection and one response buffer.
type httpConn struct {
	c   *http.Client
	buf []byte
}

func newHTTPConn() *httpConn {
	return &httpConn{c: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (h *httpConn) close() { h.c.CloseIdleConnections() }

// post sends the request to base and returns whether the response was a 200
// carrying exactly the expected bytes, with the response headers.
func (h *httpConn) post(base string, rq request) (bool, http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, base+rq.path, bytes.NewReader(rq.clip.stream))
	if err != nil {
		return false, nil, err
	}
	if rq.tenant != "" {
		req.Header.Set("X-Tenant", rq.tenant)
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return false, nil, err
	}
	defer resp.Body.Close()
	if resp.ContentLength < 0 || resp.ContentLength > 64<<20 {
		body, err := io.ReadAll(resp.Body)
		return err == nil && resp.StatusCode == http.StatusOK && bytes.Equal(body, rq.want), resp.Header, err
	}
	n := int(resp.ContentLength)
	if cap(h.buf) < n+1 {
		h.buf = make([]byte, n+1)
	}
	// One byte more than announced, so a longer body cannot pass as equal.
	got, err := io.ReadFull(resp.Body, h.buf[:n+1])
	if err != io.ErrUnexpectedEOF && err != io.EOF {
		if err == nil {
			err = fmt.Errorf("response longer than Content-Length %d", n)
		}
		return false, resp.Header, err
	}
	return resp.StatusCode == http.StatusOK && bytes.Equal(h.buf[:got], rq.want), resp.Header, nil
}

// respRecorder is the ResponseWriter for calls straight into a handler.
type respRecorder struct {
	hdr    http.Header
	status int
	body   []byte
}

func (r *respRecorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}

func (r *respRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *respRecorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	r.body = append(r.body, p...)
	return len(p), nil
}

// call runs the request through a handler without a socket, reusing rec's
// body buffer, and reports whether the response verified.
func call(h http.Handler, rq request, rec *respRecorder) (bool, error) {
	req, err := http.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.clip.stream))
	if err != nil {
		return false, err
	}
	if rq.tenant != "" {
		req.Header.Set("X-Tenant", rq.tenant)
	}
	rec.hdr, rec.status, rec.body = nil, 0, rec.body[:0]
	h.ServeHTTP(rec, req)
	return rec.status == http.StatusOK && bytes.Equal(rec.body, rq.want), nil
}
