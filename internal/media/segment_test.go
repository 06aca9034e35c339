package media

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// segTestStream encodes a deterministic synthetic clip.
func segTestStream(t testing.TB, w, h, frames int, mut func(*CodecConfig)) ([]byte, CodecConfig) {
	t.Helper()
	src := DefaultSource(w, h)
	src.Seed = 11
	fr := NewSource(src).Frames(frames)
	cfg := DefaultCodec(w, h)
	if mut != nil {
		mut(&cfg)
	}
	stream, _, _, err := Encode(cfg, fr)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return stream, cfg
}

// TestEncodeClosedCuts pins the closure analysis on the structural cases
// that matter: IPPP GOPs cut at every GOP boundary, (N-1)%M==0 GOPs are
// closed, and the default open-GOP structure (N=12, M=3) has no interior
// cuts at all — its boundary B frames reference across the I.
func TestEncodeClosedCuts(t *testing.T) {
	cases := []struct {
		n, gopN, gopM int
		want          []int
	}{
		{12, 4, 1, []int{4, 8}},
		{26, 13, 3, []int{13}},
		{24, 12, 3, nil},           // open GOPs: B(10),B(11) reference I(12)
		{30, 10, 3, []int{10, 20}}, // (N-1)%M == 0: closed
		{5, 12, 3, nil},            // single GOP
	}
	for _, c := range cases {
		got := EncodeClosedCuts(c.n, c.gopN, c.gopM)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("EncodeClosedCuts(%d,%d,%d) = %v, want %v", c.n, c.gopN, c.gopM, got, c.want)
		}
	}
}

// TestIndexGOPs checks the scan against the encoder's own structure: the
// decode-side cuts of a stream we encoded must equal the encode-side
// closure of its GOP parameters, and every frame-bit offset must point
// at a frame marker.
func TestIndexGOPs(t *testing.T) {
	stream, cfg := segTestStream(t, 64, 48, 26, func(c *CodecConfig) { c.GOPN = 13; c.GOPM = 3 })
	var checkpoints int
	ix, err := IndexGOPs(stream, func(coded int) error {
		if coded != checkpoints {
			t.Errorf("checkpoint %d fired out of order (want %d)", coded, checkpoints)
		}
		checkpoints++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checkpoints != 26 {
		t.Errorf("checkpoints = %d, want 26", checkpoints)
	}
	want := EncodeClosedCuts(26, cfg.GOPN, cfg.GOPM)
	if fmt.Sprint(ix.Cuts()) != fmt.Sprint(want) {
		t.Errorf("decode-side cuts %v, want %v", ix.Cuts(), want)
	}
	if fmt.Sprint(ix.TranscodeCuts(cfg.GOPN, cfg.GOPM)) != fmt.Sprint(want) {
		t.Errorf("transcode cuts %v, want %v", ix.TranscodeCuts(cfg.GOPN, cfg.GOPM), want)
	}
	r := NewBitReader(stream)
	for c := 0; c < ix.Seq.Frames; c++ {
		r.Reset(readerMark{pos: ix.FrameBit(c)})
		if m := r.ReadBits(16); m != frameMarker {
			t.Errorf("FrameBit(%d): no frame marker at bit %d (got %#x)", c, ix.FrameBit(c), m)
		}
	}

	// The scan validates like the decoder: truncation and a broken TRef
	// bijection are ErrBitstream.
	if _, err := IndexGOPs(stream[:len(stream)/2], nil); !errors.Is(err, ErrBitstream) {
		t.Errorf("truncated stream: err = %v, want ErrBitstream", err)
	}
	// Corrupt frame 1's TRef to duplicate frame 0's (tref field sits 18
	// bits into the frame header).
	dup := append([]byte(nil), stream...)
	trefBit := ix.FrameBit(1) + 18
	hdr0 := uint32(0)
	for i := 0; i < 16; i++ {
		b := (dup[(trefBit+i)/8] >> (7 - (trefBit+i)%8)) & 1
		hdr0 = hdr0<<1 | uint32(b)
	}
	for i := 0; i < 16; i++ { // overwrite with 0 = frame 0's display index
		dup[(trefBit+i)/8] &^= 1 << (7 - (trefBit+i)%8)
	}
	if hdr0 == 0 {
		t.Fatal("frame 1 tref unexpectedly already 0")
	}
	if _, err := IndexGOPs(dup, nil); !errors.Is(err, ErrBitstream) {
		t.Errorf("duplicate tref: err = %v, want ErrBitstream", err)
	}

	// Checkpoint errors abort with the callback's error.
	abort := errors.New("parked")
	if _, err := IndexGOPs(stream, func(coded int) error {
		if coded == 3 {
			return abort
		}
		return nil
	}); !errors.Is(err, abort) {
		t.Errorf("checkpoint abort: err = %v, want %v", err, abort)
	}
}

func TestPartitionSegments(t *testing.T) {
	cuts := []int{4, 8, 12, 16, 20}
	spans := PartitionSegments(24, 3, cuts)
	if fmt.Sprint(spans) != "[[0 8] [8 16] [16 24]]" {
		t.Errorf("balanced partition = %v", spans)
	}
	if spans := PartitionSegments(24, 1, cuts); fmt.Sprint(spans) != "[[0 24]]" {
		t.Errorf("k=1 partition = %v", spans)
	}
	if spans := PartitionSegments(24, 4, nil); fmt.Sprint(spans) != "[[0 24]]" {
		t.Errorf("no-cuts partition = %v", spans)
	}
	// More requested segments than cuts: use them all.
	if spans := PartitionSegments(12, 8, []int{4, 8}); fmt.Sprint(spans) != "[[0 4] [4 8] [8 12]]" {
		t.Errorf("cut-starved partition = %v", spans)
	}
	// Spans must tile [0, n) cutting only at cut positions.
	spans = PartitionSegments(26, 5, []int{13})
	if fmt.Sprint(spans) != "[[0 13] [13 26]]" {
		t.Errorf("single-cut partition = %v", spans)
	}
}

// transcodeSegmented runs the full media-layer segment pipeline: index,
// partition into k spans, decode each span concurrently into its own
// span encoder (only the first writes the sequence header), stitch.
// Returns the stitched bitstream.
func transcodeSegmented(t testing.TB, stream []byte, out CodecConfig, k, decWorkers int) []byte {
	t.Helper()
	ix, err := IndexGOPs(stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := ix.Seq.Frames
	spans := PartitionSegments(n, k, ix.TranscodeCuts(out.GOPN, out.GOPM))
	parts := make([]*BitWriter, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for si, sp := range spans {
		wg.Add(1)
		go func(si, lo, hi int) {
			defer wg.Done()
			enc, err := NewStreamEncoderSegment(out, n, lo, hi)
			if err != nil {
				errs[si] = err
				return
			}
			_, err = DecodeSegment(stream, ix.FrameBit(lo), lo, hi, DecodeOptions{
				Workers: decWorkers,
				OnDisplayFrame: func(di int, f *Frame) error {
					return enc.Push(f)
				},
			})
			if err != nil {
				enc.Abort()
				errs[si] = err
				return
			}
			parts[si], _, errs[si] = enc.CloseRaw()
		}(si, sp[0], sp[1])
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			t.Fatalf("segment %d: %v", si, err)
		}
	}
	return StitchSegments(parts)
}

// TestSegmentTranscodeGoldenSweep is the tentpole's bit-identity guard:
// for segment counts 1..8 (and serial vs pipelined segment decodes) the
// stitched segment-parallel transcode must be byte-identical to the
// serial path — a whole-clip decode re-encoded by the batch encoder.
func TestSegmentTranscodeGoldenSweep(t *testing.T) {
	stream, cfg := segTestStream(t, 64, 48, 39, func(c *CodecConfig) { c.GOPN = 13; c.GOPM = 3 })
	out := cfg
	out.Q = 9 // actual re-quantization, not a passthrough

	res, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	golden, _, _, err := Encode(out, res.DisplayFrames())
	if err != nil {
		t.Fatal(err)
	}

	for k := 1; k <= 8; k++ {
		for _, dw := range []int{1, 4} {
			got := transcodeSegmented(t, stream, out, k, dw)
			if !bytes.Equal(got, golden) {
				t.Errorf("k=%d decWorkers=%d: stitched stream differs from serial path (%d vs %d bytes)",
					k, dw, len(got), len(golden))
			}
		}
	}

	// Open-GOP clips have no usable cuts: the pipeline must degrade to a
	// single segment and still match.
	openStream, openCfg := segTestStream(t, 64, 48, 24, nil) // N=12, M=3: open
	ix, err := IndexGOPs(openStream, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cuts := ix.TranscodeCuts(openCfg.GOPN, openCfg.GOPM); len(cuts) != 0 {
		t.Fatalf("open-GOP stream reported cuts %v", cuts)
	}
	openOut := openCfg
	openOut.Q = 9
	openRes, err := Decode(openStream)
	if err != nil {
		t.Fatal(err)
	}
	openGolden, _, _, err := Encode(openOut, openRes.DisplayFrames())
	if err != nil {
		t.Fatal(err)
	}
	if got := transcodeSegmented(t, openStream, openOut, 4, 2); !bytes.Equal(got, openGolden) {
		t.Error("open-GOP fallback stream differs from serial path")
	}
}

// TestDecodeSegmentPixels decodes each closed segment independently and
// checks delivered pixels (and display indices) against the whole-stream
// decode.
func TestDecodeSegmentPixels(t *testing.T) {
	stream, cfg := segTestStream(t, 64, 48, 26, func(c *CodecConfig) { c.GOPN = 13; c.GOPM = 3 })
	ix, err := IndexGOPs(stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	wholeFrames := whole.DisplayFrames()
	spans := PartitionSegments(ix.Seq.Frames, 2, ix.TranscodeCuts(cfg.GOPN, cfg.GOPM))
	if len(spans) != 2 {
		t.Fatalf("spans = %v, want 2", spans)
	}
	for _, workers := range []int{1, 4} {
		for _, sp := range spans {
			next := sp[0]
			_, err := DecodeSegment(stream, ix.FrameBit(sp[0]), sp[0], sp[1], DecodeOptions{
				Workers: workers,
				OnDisplayFrame: func(di int, f *Frame) error {
					if di != next {
						t.Errorf("segment %v: delivered di %d, want %d", sp, di, next)
					}
					next++
					if !bytes.Equal(f.Pix, wholeFrames[di].Pix) {
						t.Errorf("segment %v workers=%d: frame %d pixels differ", sp, workers, di)
					}
					return nil
				},
			})
			if err != nil {
				t.Fatalf("segment %v workers=%d: %v", sp, workers, err)
			}
			if next != sp[1] {
				t.Errorf("segment %v: delivered up to %d, want %d", sp, next, sp[1])
			}
		}
	}

	// Guard rails: non-streaming use and bad ranges are rejected.
	if _, err := DecodeSegment(stream, ix.FrameBit(0), 0, 26, DecodeOptions{}); err == nil {
		t.Error("non-streaming DecodeSegment did not fail")
	}
	if _, err := DecodeSegment(stream, ix.FrameBit(0), 13, 40, DecodeOptions{
		OnDisplayFrame: func(int, *Frame) error { return nil },
	}); err == nil {
		t.Error("out-of-range segment did not fail")
	}
}

// TestAppendBits splices writers at unaligned bit positions and checks
// the result equals writing the same bits through one writer.
func TestAppendBits(t *testing.T) {
	one := NewBitWriter()
	a, b := NewBitWriter(), NewBitWriter()
	vals := []struct {
		v uint32
		n uint
	}{{0x5, 3}, {0x1FFFF, 17}, {0, 1}, {0xABCDEF, 24}, {0x3, 7}, {1, 1}}
	for i, x := range vals {
		one.WriteBits(x.v, x.n)
		if i < 3 {
			a.WriteBits(x.v, x.n)
		} else {
			b.WriteBits(x.v, x.n)
		}
	}
	w := NewBitWriter()
	w.AppendBits(a)
	w.AppendBits(b)
	if w.BitLen() != one.BitLen() {
		t.Fatalf("bit length %d, want %d", w.BitLen(), one.BitLen())
	}
	if !bytes.Equal(w.Bytes(), one.Bytes()) {
		t.Errorf("spliced bytes differ")
	}
}
