package kpn

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

// fanoutGraph builds src.out -> {a.in, b.in} with one broadcast stream.
func fanoutGraph(buf int) *Graph {
	g := NewGraph("fanout")
	g.AddTask("src", "source").AddOut("out")
	g.AddTask("a", "sink").AddIn("in")
	g.AddTask("b", "sink").AddIn("in")
	g.MustConnect("src.out", buf, "a.in", "b.in")
	return g
}

// TestMultiConsumerEOFAfterDrain checks a broadcast-FIFO edge case the
// fan-out streams lean on: after the producer closes, a consumer that has
// not yet read anything must still drain every buffered byte and only
// then see io.EOF — and a consumer that already drained must not block
// the laggard's access to the buffered data.
func TestMultiConsumerEOFAfterDrain(t *testing.T) {
	const total = 1000
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	fastDone := make(chan struct{})
	var gotA, gotB []byte
	funcs := map[string]TaskFunc{
		"src": func(c *TaskCtx) error {
			// Write in awkward chunk sizes, then return (closing the stream).
			for off := 0; off < total; {
				n := 37
				if off+n > total {
					n = total - off
				}
				if err := c.Write("out", payload[off:off+n]); err != nil {
					return err
				}
				off += n
			}
			return nil
		},
		"a": func(c *TaskCtx) error {
			defer close(fastDone)
			buf := make([]byte, 64)
			for {
				n, err := c.ReadSome("in", buf)
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				gotA = append(gotA, buf[:n]...)
			}
		},
		"b": func(c *TaskCtx) error {
			// Start draining only after the fast consumer saw EOF, i.e.
			// strictly after the stream closed: every byte must still be
			// there.
			<-fastDone
			buf := make([]byte, 11)
			for {
				n, err := c.ReadSome("in", buf)
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				gotB = append(gotB, buf[:n]...)
			}
		},
	}
	if err := Run(fanoutGraph(2*total), funcs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, payload) {
		t.Fatalf("fast consumer: got %d bytes, mismatch with payload", len(gotA))
	}
	if !bytes.Equal(gotB, payload) {
		t.Fatalf("slow consumer: got %d bytes after close, want all %d", len(gotB), total)
	}
}

// TestEOFMidRecordAfterDrain checks that a ReadFull spanning the close
// point drains the remaining bytes and reports io.ErrUnexpectedEOF, not
// a clean EOF.
func TestEOFMidRecordAfterDrain(t *testing.T) {
	var gotErr error
	funcs := map[string]TaskFunc{
		"src": func(c *TaskCtx) error {
			return c.Write("out", make([]byte, 10))
		},
		"a": func(c *TaskCtx) error {
			if err := c.Read("in", make([]byte, 7)); err != nil {
				return err
			}
			gotErr = c.Read("in", make([]byte, 8)) // only 3 bytes remain
			return nil
		},
		"b": func(c *TaskCtx) error { // second consumer drains cleanly
			if err := c.Read("in", make([]byte, 10)); err != nil {
				return err
			}
			if err := c.Read("in", make([]byte, 1)); err != io.EOF {
				return errors.New("want io.EOF at record boundary")
			}
			return nil
		},
	}
	if err := Run(fanoutGraph(64), funcs); err != nil {
		t.Fatal(err)
	}
	if gotErr != io.ErrUnexpectedEOF {
		t.Fatalf("mid-record close: got %v, want io.ErrUnexpectedEOF", gotErr)
	}
}

// TestMidStreamProducerAbort checks that a producer returning a non-nil
// error mid-stream poisons the network: every consumer observes the
// failure (never a clean EOF), and Run reports it.
func TestMidStreamProducerAbort(t *testing.T) {
	boom := errors.New("boom")
	var sawEOF atomic.Int32
	consumer := func(c *TaskCtx) error {
		buf := make([]byte, 16)
		for {
			_, err := c.ReadSome("in", buf)
			if err == io.EOF {
				sawEOF.Add(1)
				return nil
			}
			if err != nil {
				return nil // expected poison; swallow so Run reports the producer's error
			}
		}
	}
	funcs := map[string]TaskFunc{
		"src": func(c *TaskCtx) error {
			if err := c.Write("out", make([]byte, 100)); err != nil {
				return err
			}
			return boom
		},
		"a": consumer,
		"b": consumer,
	}
	err := Run(fanoutGraph(32), funcs)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run = %v, want the producer's abort error", err)
	}
	if n := sawEOF.Load(); n != 0 {
		t.Fatalf("%d consumers saw clean EOF after a producer abort", n)
	}
}
