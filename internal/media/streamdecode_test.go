package media

// Streaming-delivery decoder tests: the OnDisplayFrame hook must hand
// out frames in display order with pixels identical to the batch
// decoder, and the Retire/Recycle accounting must return every frame
// exactly once on success and on abort. Subtests named wN run a clip N
// macroblocks wide.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func streamTestClip(t testing.TB, w, h, frames, gopn, gopm int, halfPel bool) ([]byte, []*Frame) {
	t.Helper()
	src := DefaultSource(w, h)
	src.Seed = 7
	in := NewSource(src).Frames(frames)
	cfg := DefaultCodec(w, h)
	cfg.GOPN = gopn
	cfg.GOPM = gopm
	cfg.HalfPel = halfPel
	stream, _, _, err := Encode(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	return stream, in
}

// TestStreamingDecodeParity checks display-order delivery with pixel
// content identical to the batch decode, across GOP shapes and clip
// widths, with exact Retire accounting.
func TestStreamingDecodeParity(t *testing.T) {
	for _, tc := range []struct {
		frames, gopn, gopm int
		halfPel            bool
	}{
		{9, 12, 3, true},
		{8, 8, 1, false},
		{14, 6, 5, true},
		{5, 255, 15, false},
	} {
		for mbw := 1; mbw <= 8; mbw++ {
			t.Run(fmt.Sprintf("m%d-w%d", tc.gopm, mbw), func(t *testing.T) {
				stream, _ := streamTestClip(t, 16*mbw, 48, tc.frames, tc.gopn, tc.gopm, tc.halfPel)
				ref, err := Decode(stream)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.DisplayFrames()
				var got []*Frame
				retired := map[*Frame]int{}
				recycled := 0
				res, err := DecodeWithOptions(stream, DecodeOptions{
					OnDisplayFrame: func(di int, f *Frame) error {
						if di != len(got) {
							return fmt.Errorf("delivered display index %d, want %d", di, len(got))
						}
						// Snapshot pixels at delivery time: mutation after
						// delivery (but before Retire) would break the
						// fused consumer even if the frame is "eventually"
						// correct.
						c := NewFrame(f.W, f.H)
						copy(c.Pix, f.Pix)
						got = append(got, c)
						return nil
					},
					Retire:  func(f *Frame) { retired[f]++ },
					Recycle: func(*Frame) { recycled++ },
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != tc.frames {
					t.Fatalf("delivered %d frames, want %d", len(got), tc.frames)
				}
				for di, f := range got {
					if !bytes.Equal(f.Pix, want[di].Pix) {
						t.Errorf("display frame %d pixels differ from batch decode", di)
					}
				}
				if len(retired) != tc.frames {
					t.Errorf("retired %d distinct frames, want %d", len(retired), tc.frames)
				}
				for f, n := range retired {
					if n != 1 {
						t.Errorf("frame %p retired %d times", f, n)
					}
				}
				if recycled != 0 {
					t.Errorf("%d frames recycled on success; all should be retired", recycled)
				}
				// Streaming mode returns header-only coded entries.
				for i, cf := range res.Coded {
					if cf.Frame != nil {
						t.Fatalf("coded[%d].Frame non-nil in streaming mode", i)
					}
				}
			})
		}
	}
}

// TestStreamingDecodeCallbackError aborts delivery from the hook and
// checks the error surfaces and every frame is handed back exactly once
// (Retire for delivered, Recycle for the rest).
func TestStreamingDecodeCallbackError(t *testing.T) {
	sentinel := errors.New("consumer full")
	for mbw := 1; mbw <= 4; mbw++ {
		stream, _ := streamTestClip(t, 16*mbw, 48, 10, 12, 3, true)
		for _, stopAt := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("w%d-stop%d", mbw, stopAt), func(t *testing.T) {
				handedBack := map[*Frame]int{}
				issued := map[*Frame]bool{}
				back := func(f *Frame) { handedBack[f]++ }
				delivered := 0
				_, err := DecodeWithOptions(stream, DecodeOptions{
					NewFrame: func(w, h int) *Frame {
						f := NewFrame(w, h)
						issued[f] = true
						return f
					},
					OnDisplayFrame: func(di int, f *Frame) error {
						if di == stopAt {
							return sentinel
						}
						delivered++
						return nil
					},
					Retire:  back,
					Recycle: back,
				})
				if !errors.Is(err, sentinel) {
					t.Fatalf("err = %v, want %v", err, sentinel)
				}
				for f := range issued {
					if handedBack[f] != 1 {
						t.Errorf("frame %p handed back %d times, want exactly 1", f, handedBack[f])
					}
				}
				for f := range handedBack {
					if !issued[f] {
						t.Errorf("unknown frame %p handed back", f)
					}
				}
			})
		}
	}
}

// TestStreamingDecodeWindowEdges exercises the reorder-window boundary
// shapes: a single-GOP clip (the whole stream is one window span), a
// GOPM=1 clip (no B frames, so the reorder window never holds more than
// one frame), and a one-frame clip. At every clip width the decode must
// deliver batch-identical pixels with symmetric pool traffic.
func TestStreamingDecodeWindowEdges(t *testing.T) {
	for _, tc := range []struct {
		name               string
		frames, gopn, gopm int
	}{
		{"single-gop", 7, 255, 3},
		{"gopm-1", 9, 6, 1},
		{"single-frame", 1, 12, 3},
		{"gop-equals-clip", 8, 8, 2},
	} {
		for mbw := 1; mbw <= 4; mbw++ {
			t.Run(fmt.Sprintf("%s-w%d", tc.name, mbw), func(t *testing.T) {
				stream, _ := streamTestClip(t, 16*mbw, 48, tc.frames, tc.gopn, tc.gopm, false)
				ref, err := Decode(stream)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.DisplayFrames()
				pool := NewSyncFramePool(64)
				delivered := 0
				_, err = DecodeWithOptions(stream, DecodeOptions{
					NewFrame: pool.Get,
					Recycle:  pool.Put,
					OnDisplayFrame: func(di int, f *Frame) error {
						if di != delivered {
							return fmt.Errorf("delivered display index %d, want %d", di, delivered)
						}
						if !bytes.Equal(f.Pix, want[di].Pix) {
							return fmt.Errorf("display frame %d pixels differ from batch decode", di)
						}
						delivered++
						return nil
					},
					Retire: pool.Put,
				})
				if err != nil {
					t.Fatal(err)
				}
				if delivered != tc.frames {
					t.Errorf("delivered %d frames, want %d", delivered, tc.frames)
				}
				if n := pool.Outstanding(); n != 0 {
					t.Errorf("pool leak: %d frames outstanding", n)
				}
				if n := pool.DoublePuts(); n != 0 {
					t.Errorf("%d double Puts: frame handed back twice", n)
				}
			})
		}
	}
}

// TestStreamingDecodeTruncatedLastGOP cuts the bitstream inside its
// final GOP at a spread of depths: the decode must fail with
// ErrBitstream and hand every pooled frame back, delivered or not.
func TestStreamingDecodeTruncatedLastGOP(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 20} {
		for mbw := 1; mbw <= 4; mbw++ {
			t.Run(fmt.Sprintf("cut%d-w%d", cut, mbw), func(t *testing.T) {
				stream, _ := streamTestClip(t, 16*mbw, 48, 13, 13, 3, false)
				bad := stream[:len(stream)-cut]
				pool := NewSyncFramePool(64)
				_, err := DecodeWithOptions(bad, DecodeOptions{
					NewFrame:       pool.Get,
					Recycle:        pool.Put,
					OnDisplayFrame: func(int, *Frame) error { return nil },
					Retire:         pool.Put,
				})
				if !errors.Is(err, ErrBitstream) {
					t.Fatalf("err = %v, want ErrBitstream", err)
				}
				if n := pool.Outstanding(); n != 0 {
					t.Errorf("pool leak on truncated stream: %d frames outstanding", n)
				}
				if n := pool.DoublePuts(); n != 0 {
					t.Errorf("%d double Puts on unwind", n)
				}
			})
		}
	}
}

// TestStreamSinkBadTRef feeds the sink out-of-range and duplicate
// display indices directly and expects ErrBitstream from both.
func TestStreamSinkBadTRef(t *testing.T) {
	mk := func() *streamSink {
		return newStreamSink(&DecodeOptions{
			OnDisplayFrame: func(int, *Frame) error { return nil },
		}, 0, 4)
	}
	s := mk()
	if err := s.frameDecoded(4, NewFrame(16, 16), true); !errors.Is(err, ErrBitstream) {
		t.Errorf("out-of-range TRef: err = %v, want ErrBitstream", err)
	}
	s = mk()
	if err := s.frameDecoded(-1, NewFrame(16, 16), true); !errors.Is(err, ErrBitstream) {
		t.Errorf("negative TRef: err = %v, want ErrBitstream", err)
	}
	s = mk()
	if err := s.frameDecoded(2, NewFrame(16, 16), true); err != nil {
		t.Fatal(err)
	}
	if err := s.frameDecoded(2, NewFrame(16, 16), false); !errors.Is(err, ErrBitstream) {
		t.Errorf("duplicate TRef: err = %v, want ErrBitstream", err)
	}
}

// TestStreamSinkAnyOrder feeds the sink random permutations of a
// display range, every third frame a reference, and checks that frames
// come out in display order and that each is retired exactly once,
// only after its delivery, whatever the order the decoder produced them
// in: a stream may hold its frames back in any order, so the pending
// heap is driven far deeper here than a real GOP drives it.
func TestStreamSinkAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 64, 300} {
		frames := make([]*Frame, n)
		for i := range frames {
			frames[i] = &Frame{}
		}
		var got []int
		retired := map[*Frame]int{}
		k := newStreamSink(&DecodeOptions{
			OnDisplayFrame: func(di int, f *Frame) error {
				if f != frames[di-10] {
					t.Fatalf("n=%d: display %d delivered another index's frame", n, di)
				}
				got = append(got, di)
				return nil
			},
			Retire: func(f *Frame) { retired[f]++ },
		}, 10, 10+n)
		for i, di := range rng.Perm(n) {
			if err := k.frameDecoded(10+di, frames[di], i%3 == 0); err != nil {
				t.Fatal(err)
			}
			if err := k.deliver(); err != nil {
				t.Fatal(err)
			}
		}
		k.cleanup()
		for di, f := range frames {
			if len(got) <= di || got[di] != 10+di {
				t.Fatalf("n=%d: delivered %v, want 10..%d in order", n, got, 10+n-1)
			}
			if retired[f] != 1 {
				t.Fatalf("n=%d: display %d retired %d times", n, di, retired[f])
			}
		}
	}
}
