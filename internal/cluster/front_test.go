package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"eclipse/internal/media"
	"eclipse/internal/serve"
)

// frontCap is both tiers' MaxBodyBytes, 256 raw 16×16 frames, and
// frontExchange bounds one small exchange's allocation, client, gateway
// and backend together, with the connection upstream open. Trusting a
// declared length the cap refuses would add the cap's 128 KiB slab.
const frontCap, frontExchange = 64 << 10, 96 << 10

// frontRow is one wire request and the status both tiers answer it with.
// A positive maxAlloc bounds what its exchange may allocate.
type frontRow struct {
	name, wire string
	want       int
	maxAlloc   uint64
}

// frontWire renders a POST of body to path with the extra header lines;
// cl is the Content-Length it declares, or -1 for chunked framing.
func frontWire(path, header string, cl int64, body string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: x\r\n%s", path, header)
	if cl >= 0 {
		fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n%s", cl, body)
		return b.String()
	}
	b.WriteString("Transfer-Encoding: chunked\r\n\r\n")
	for len(body) > 0 {
		n := min(len(body), 3000)
		fmt.Fprintf(&b, "%x\r\n%s\r\n", n, body[:n])
		body = body[n:]
	}
	b.WriteString("0\r\n\r\n")
	return b.String()
}

// frontRows are the table, in two parts. The body rows encode 16×16
// frames, so any payload of whole planes has an offline answer. The
// timeout and q rows carry If-None-Match with a valid request's content
// address, so each tier answers 304 right after accepting one, and no
// job runs.
func frontRows(t *testing.T) (body, params []frontRow) {
	stream, _, _, err := media.Encode(media.DefaultCodec(32, 32), media.NewSource(media.DefaultSource(32, 32)).Frames(2))
	if err != nil {
		t.Fatal(err)
	}
	xcode, _ := serve.ParseParams(serve.KindTranscode, "q=9")
	revalidate := func(path, header string, key serve.CacheKey) string {
		return frontWire(path, header+"If-None-Match: "+key.ETag()+"\r\n", int64(len(stream)), string(stream))
	}
	decode := func(timeout string) string {
		return revalidate("/v1/decode", "X-Timeout-Ms: "+timeout+"\r\n", serve.DecodeKey(stream))
	}
	transcode := func(query string) string { return revalidate("/v1/transcode?"+query, "", xcode.Key(stream)) }
	// 15 bytes: a sequence header of 255×255 macroblocks and one frame,
	// and an I frame's header with no body.
	w := media.NewBitWriter()
	media.WriteSeqHeader(w, &media.SeqHeader{MBCols: 255, MBRows: 255, Q: 8, GOPN: 1, GOPM: 1, Frames: 1})
	media.WriteFrameHdr(w, media.FrameHdr{Type: media.FrameI})
	forged := string(w.Bytes())
	payload := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131 + i>>9)
		}
		return string(b)
	}
	const enc = "/v1/encode?w=16&h=16"
	body = []frontRow{
		// First, while no pool holds a slab the cap's size: the 100 bytes
		// sent need one 4 KiB chunk.
		{"lying-length", frontWire(enc, "", 1<<40, payload(100)), http.StatusBadRequest, frontExchange + 4<<10},
		{"exact-length", frontWire(enc, "", 20480, payload(20480)), http.StatusOK, 0},
		// After a 200, so the gateway's connection upstream is open. A
		// body of n bytes holds under 8n / (34 + MBCount) frames of
		// MBCount × 256 bytes: under 2048·n bytes of output.
		{"forged-geometry", frontWire("/v1/decode", "", int64(len(forged)), forged), http.StatusBadRequest, frontExchange + 2048*uint64(len(forged))},
		{"empty", frontWire(enc, "", 0, ""), http.StatusBadRequest, 0},
		{"short", frontWire(enc, "", 20480, payload(9000)), http.StatusBadRequest, 0},
		{"chunked", frontWire(enc, "", -1, payload(20480)), http.StatusOK, 0},
		{"chunked-at-cap", frontWire(enc, "", -1, payload(frontCap)), http.StatusOK, 0},
		{"chunked-over-cap", frontWire(enc, "", -1, payload(frontCap+1)), http.StatusRequestEntityTooLarge, 0},
		{"at-cap", frontWire(enc, "", frontCap, payload(frontCap)), http.StatusOK, 0},
		{"one-over-cap", frontWire(enc, "", frontCap+1, payload(frontCap+1)), http.StatusRequestEntityTooLarge, 0},
	}
	params = []frontRow{
		{"timeout=soon", decode("soon"), http.StatusBadRequest, 0},
		{"timeout=0", decode("0"), http.StatusBadRequest, 0},
		{"timeout=-5", decode("-5"), http.StatusBadRequest, 0},
		{"timeout=1", decode("1"), http.StatusNotModified, 0},
		{"timeout=50", decode("50"), http.StatusNotModified, 0},
		{"q=", transcode("q="), http.StatusBadRequest, 0},
		{"q=x", transcode("q=x"), http.StatusBadRequest, 0},
		{"q=9", transcode("q=9"), http.StatusNotModified, 0},
	}
	return body, params
}

// wireClient sends raw requests to one tier over a kept-alive
// connection, as a client would, and dials anew once one is closed.
type wireClient struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
}

// roundTrip writes wire and reads the response. A request whose body is
// shorter than its Content-Length ends with a write close. closed reports
// that the server then closed the connection: a read met EOF, not a
// response to the rest of the request.
func (c *wireClient) roundTrip(wire string, short bool) (resp *http.Response, body []byte, reused, closed bool, err error) {
	if reused = c.conn != nil; !reused {
		if c.conn, err = net.Dial("tcp", c.addr); err != nil {
			return nil, nil, false, false, err
		}
		c.br = bufio.NewReader(c.conn)
	}
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err = io.WriteString(c.conn, wire); err == nil && short {
		err = c.conn.(*net.TCPConn).CloseWrite()
	}
	if err == nil {
		if resp, err = http.ReadResponse(c.br, nil); err == nil {
			body, err = io.ReadAll(resp.Body)
		}
	}
	if err != nil || resp.Close || short {
		_, eof := c.br.ReadByte()
		closed = err == nil && eof == io.EOF
		c.conn.Close()
		c.conn = nil
	}
	return resp, body, reused, closed, err
}

// frontTable sends every row straight to a serve backend, then through a
// gateway with L1 and a body cap of gatewayCap, and returns by row what
// each path got wrong: the status; a 200's bytes against the offline
// codec's for the body io.ReadAll over http.MaxBytesReader reads; a 413
// on a connection not kept alive, or not closed after it, or from a
// backend; the allocation bound; the gateway's pool balance.
func frontTable(t *testing.T, rows []frontRow, gatewayCap int64) map[string][]string {
	srv := serve.New(serve.Config{Workers: 1, MaxBodyBytes: frontCap})
	backend := httptest.NewServer(srv.Handler())
	g := newTestGateway(t, Config{L1Bytes: 1 << 20, MaxBodyBytes: gatewayCap}, backend.Listener.Addr().String())
	forceUp(g)
	gateway := httptest.NewServer(g.Handler())
	t.Cleanup(backend.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	t.Cleanup(gateway.Close)

	problems := map[string][]string{}
	direct := &wireClient{addr: backend.Listener.Addr().String()}
	viaGateway := &wireClient{addr: gateway.Listener.Addr().String()}
	var held, notModified int64 // gateway slabs a flight holds; 304 rows
	for _, row := range rows {
		ref, err := http.ReadRequest(bufio.NewReader(strings.NewReader(row.wire)))
		if err != nil {
			t.Fatal(err)
		}
		refBody, refErr := io.ReadAll(http.MaxBytesReader(httptest.NewRecorder(), ref.Body, frontCap))
		refStatus := http.StatusBadRequest
		if errors.As(refErr, new(*http.MaxBytesError)) {
			refStatus = http.StatusRequestEntityTooLarge
		}
		if refErr != nil && refStatus != row.want {
			t.Fatalf("%s: the reference read fails with %v, the row wants %d", row.name, refErr, row.want)
		}
		if row.want == http.StatusNotModified {
			notModified++
		}
		for _, c := range []*wireClient{direct, viaGateway} {
			path := map[bool]string{true: "direct", false: "gateway"}[c == direct]
			fail := func(format string, args ...any) {
				problems[row.name] = append(problems[row.name], path+": "+fmt.Sprintf(format, args...))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, body, reused, closed, err := c.roundTrip(row.wire, errors.Is(refErr, io.ErrUnexpectedEOF))
			runtime.ReadMemStats(&after)
			switch {
			case err != nil:
				fail("%v", err)
				continue
			case resp.StatusCode != row.want:
				fail("status %d (%.80q), want %d", resp.StatusCode, body, row.want)
			case row.want == http.StatusOK && !bytes.Equal(body, frontEncode(t, refBody)):
				fail("%d bytes differ from the offline codec's", len(body))
			case row.want == http.StatusRequestEntityTooLarge && !(reused && resp.Close && closed && resp.Header.Get(BackendHeader) == ""):
				fail("reused %v, Connection: close %v, closed %v, backend %q; want true, true, true, none", reused, resp.Close, closed, resp.Header.Get(BackendHeader))
			}
			if n := after.TotalAlloc - before.TotalAlloc; row.maxAlloc > 0 && !raceDetector && n > row.maxAlloc {
				fail("the exchange allocated %d bytes, bound %d", n, row.maxAlloc)
			}
			if c == direct {
				continue
			}
			// A relayed answer that fills no L1 entry is its flight's
			// shared answer, and stays with the followers (do).
			if resp.StatusCode != http.StatusOK && resp.Header.Get(BackendHeader) != "" {
				held++
			}
			for end := time.Now().Add(5 * time.Second); g.bufs.Outstanding() != held && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			if n := g.bufs.Outstanding(); n != held {
				fail("%d slabs out of the gateway's pool, want %d", n, held)
			}
		}
	}
	// Only the direct 304s reached the backend: the gateway answered its
	// own, so its key is the backend's.
	if got := int64(srv.Cache().Snapshot().NotModified); got != notModified {
		problems["If-None-Match"] = []string{fmt.Sprintf("backend: %d revalidations, want %d (the direct ones)", got, notModified)}
	}
	return problems
}

// frontEncode is the offline codec's answer to an encode row: body as
// 16×16 planes through the batch encoder.
func frontEncode(t *testing.T, body []byte) []byte {
	var frames []*media.Frame
	for ; len(body) > 0; body = body[256:] {
		frames = append(frames, media.NewFrame(16, 16))
		copy(frames[len(frames)-1].Pix, body)
	}
	stream, _, _, err := media.Encode(media.DefaultCodec(16, 16), frames)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// frontReport runs rows through frontTable and reports each row's
// problems in a subtest of its name, and the backend's revalidation count
// in subtest If-None-Match.
func frontReport(t *testing.T, rows []frontRow) {
	problems := frontTable(t, rows, frontCap)
	for _, row := range append(rows, frontRow{name: "If-None-Match"}) {
		t.Run(row.name, func(t *testing.T) {
			for _, p := range problems[row.name] {
				t.Error(p)
			}
		})
	}
}

// TestGatewayReadBodyParity sends the table's body rows straight to serve
// and through a gateway: the length, framing and cap cases, the lying
// length and the forged geometry. Both tiers accept a request through
// serve.Accept, and each must answer as io.ReadAll over
// http.MaxBytesReader reads the body.
func TestGatewayReadBodyParity(t *testing.T) {
	body, _ := frontRows(t)
	frontReport(t, body)
}

// TestRequestParamsAgree sends the table's parameter rows, bad and good
// X-Timeout-Ms and q values, straight to serve and through a gateway:
// each tier refuses the same ones, and the gateway answers the rest's
// If-None-Match itself with the backend's key.
func TestRequestParamsAgree(t *testing.T) {
	_, params := frontRows(t)
	frontReport(t, params)
}

// TestGatewayBodyTooLargeClosesConnection is the table's negative
// control. The gateway must refuse a body over the cap itself, 413 with
// Connection: close. One that admits a byte more than serve forwards an
// over-cap body and relays serve's 413 on a connection it keeps open,
// which the over-cap rows must catch on the gateway path, and no row on
// the direct.
func TestGatewayBodyTooLargeClosesConnection(t *testing.T) {
	body, _ := frontRows(t)
	caught := 0
	for row, ps := range frontTable(t, body, frontCap+1) {
		for _, p := range ps {
			switch {
			case strings.HasPrefix(p, "direct"):
				t.Errorf("%s: %s", row, p)
			case strings.Contains(row, "over-cap"):
				caught++
			}
		}
	}
	if caught == 0 {
		t.Fatal("a gateway that admits more than serve went unnoticed")
	}
}
