package media

import "testing"

// Microbenchmarks for the hot kernels rewritten in the fast-kernels
// pass. The decode-side kernels (bit reads, VLC decode, SAD, IDCT) must
// report 0 allocs/op: the steady-state decode loop owns all its
// buffers.

// benchStream builds a pseudo-random bitstream plus the (v, n) write
// schedule that produced it, shared by the reader benchmarks.
func benchStream(words int) ([]byte, []uint) {
	w := NewBitWriter()
	var widths []uint
	state := uint32(0x2545f491)
	for i := 0; i < words; i++ {
		state = state*1664525 + 1013904223
		n := uint(state>>27)%32 + 1
		w.WriteBits(state, n)
		widths = append(widths, n)
	}
	return w.Bytes(), widths
}

func BenchmarkReadBits(b *testing.B) {
	stream, widths := benchStream(4096)
	r := NewBitReader(stream)
	b.ReportAllocs()
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*r = BitReader{buf: stream}
		for _, n := range widths {
			r.ReadBits(n)
		}
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
}

func BenchmarkHuffDecode(b *testing.B) {
	// Encode every coded symbol of the production run/level table in a
	// round-robin, so the benchmark sees the real mix of code lengths.
	w := NewBitWriter()
	count := 0
	for rep := 0; rep < 64; rep++ {
		for sym := range coefTable.codes {
			if coefTable.codes[sym].Len == 0 {
				continue
			}
			coefTable.Encode(w, sym)
			count++
		}
	}
	enc := w.Bytes()
	r := NewBitReader(enc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*r = BitReader{buf: enc}
		for s := 0; s < count; s++ {
			if sym, _ := coefTable.Decode(r); sym < 0 {
				b.Fatal(r.Err())
			}
		}
	}
	b.ReportMetric(float64(count), "symbols/op")
}

// benchFrame builds a deterministic textured frame for the pixel-kernel
// benchmarks.
func benchFrame(w, h int) *Frame {
	f := NewFrame(w, h)
	state := uint32(12345)
	for i := range f.Pix {
		state = state*1664525 + 1013904223
		f.Pix[i] = byte(state >> 24)
	}
	return f
}

// BenchmarkSAD times the exported SAD without early-out on its two paths:
// inside, where the block is read in place from the frame, and edge, a
// corner macroblock whose vectors all point outside, where it is gathered
// with clamping first.
func BenchmarkSAD(b *testing.B) {
	ref := benchFrame(176, 144)
	for _, c := range []struct {
		name     string
		mbx, mby int
		mvs      []MV
	}{
		{"inside", 3, 3, []MV{{0, 0}, {1, -1}, {-3, 2}, {7, 5}, {-8, -8}, {4, 0}}},
		{"edge", 0, 0, []MV{{-1, 0}, {0, -1}, {-3, 2}, {5, -7}, {-8, -8}, {-4, -1}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var cur MBPixels
			ref.GetMB(c.mbx, c.mby, &cur)
			x, y := c.mbx*MBSize, c.mby*MBSize
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += SAD(&cur, ref, x, y, c.mvs[i%len(c.mvs)], 1<<30)
			}
			benchSink = sink
		})
	}
}

var benchSink int

func BenchmarkIDCT(b *testing.B) {
	var in, out Block
	state := uint32(7)
	for i := range in {
		state = state*1664525 + 1013904223
		in[i] = int16(int32(state>>20) - 2048)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IDCT(&in, &out)
	}
}

func BenchmarkFDCT(b *testing.B) {
	var in, out Block
	state := uint32(11)
	for i := range in {
		state = state*1664525 + 1013904223
		in[i] = int16(int32(state>>24) - 128)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FDCT(&in, &out)
	}
}

// BenchmarkEncodeMBRow measures the encoder's full per-frame pipeline
// (mode decision, motion search, transforms, entropy coding) on a
// small clip, normalized per macroblock row. EncodeWorkers applies, so
// this reflects the parallel analysis pass.
func BenchmarkEncodeMBRow(b *testing.B) {
	const w, h, frames = 176, 144, 4
	src := DefaultSource(w, h)
	clip := NewSource(src).Frames(frames)
	cfg := DefaultCodec(w, h)
	rows := (h / MBSize) * frames
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Encode(cfg, clip); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows), "mbrows/op")
}
