package media

import (
	"strconv"
	"testing"
)

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

// BenchmarkDecodeRunLevel decodes the coefficient events of the Fig. 10
// clip (seed 1), each coded block's events and then its EOB, re-encoded
// back to back, through DecodeRunLevel, and reports events/op. Unlike
// BenchmarkHuffDecode's round robin over the symbols, it sees the clip's
// own mix of codes, ESC included. It is for profiling the VLD; rig claims
// come from benchmark/, not from this benchmark.
func BenchmarkDecodeRunLevel(b *testing.B) {
	w := NewBitWriter()
	count := 0
	for _, evs := range loadCodedClip(b).events {
		for _, rl := range evs {
			EncodeRunLevel(w, rl)
		}
		EncodeEOB(w)
		count += len(evs) + 1
	}
	enc := w.Bytes()
	r := NewBitReader(enc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*r = BitReader{buf: enc}
		for e := 0; e < count; e++ {
			DecodeRunLevel(r)
		}
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
	b.ReportMetric(float64(count), "events/op")
}

// BenchmarkParseMB runs the decoder's fused entropy parse, parseMBCoef,
// over every macroblock of the Fig. 10 clip (seed 1) at the clip's own
// q, one clip per op, and reports ns/mb and events/op. It times the
// macroblock loop that reads the run/level event table inline, which
// the rig's media.k_vlc_dec_ns (one DecodeRunLevel call per event) does
// not see. It is for profiling; rig claims come from benchmark/.
func BenchmarkParseMB(b *testing.B) {
	mbs := streamMBs(b, "fig10", goldenStream(b))
	events := 0
	for _, evs := range loadCodedClip(b).events {
		events += len(evs) + 1
	}
	var coef [BlocksPerMB]Block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range mbs {
			in := &mbs[j]
			r, mvp := BitReader{buf: in.data, pos: in.bit}, in.mvp
			if _, _, err := parseMBCoef(&r, in.ftype, &mvp, in.q, &coef); err != nil {
				b.Fatalf("%s: %v", in.name, err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(mbs)), "ns/mb")
	b.ReportMetric(float64(events), "events/op")
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
// with clamping first. swar is inside on the portable kernel, so inside
// against swar is the shipped kernel's ratio on this host. The sad8 rows
// time the search grid's kernel through sad8 on each of its bodies
// (kernelBodies), for a full call and for one that exits after row 4.
func BenchmarkSAD(b *testing.B) {
	ref := benchFrame(176, 144)
	inside := []MV{{0, 0}, {1, -1}, {-3, 2}, {7, 5}, {-8, -8}, {4, 0}}
	swar := func(cur *MBPixels, ref *Frame, x, y int, mv MV, earlyOut int) int {
		return sadRowsSWAR(cur, ref.Pix[(y+int(mv.Y))*ref.W+x+int(mv.X):], ref.W, earlyOut)
	}
	for _, c := range []struct {
		name     string
		mbx, mby int
		mvs      []MV
		sad      func(*MBPixels, *Frame, int, int, MV, int) int
	}{
		{"inside", 3, 3, inside, SAD},
		{"edge", 0, 0, []MV{{-1, 0}, {0, -1}, {-3, 2}, {5, -7}, {-8, -8}, {-4, -1}}, SAD},
		{"swar", 3, 3, inside, swar},
	} {
		b.Run(c.name, func(b *testing.B) {
			var cur MBPixels
			ref.GetMB(c.mbx, c.mby, &cur)
			x, y := c.mbx*MBSize, c.mby*MBSize
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += c.sad(&cur, ref, x, y, c.mvs[i%len(c.mvs)], 1<<30)
			}
			benchSink = sink
		})
	}
	var cur MBPixels
	ref.GetMB(3, 3, &cur)
	row := ref.Pix[3*MBSize*ref.W+3*MBSize-4:]
	benchEachBody(b, "sad8/", func(b *testing.B) {
		for _, c := range []struct {
			name     string
			earlyOut int
		}{{"full", 1 << 30}, {"exit", -1}} {
			b.Run(c.name, func(b *testing.B) {
				var sums [8]int32
				b.ReportAllocs()
				sink := 0
				for i := 0; i < b.N; i++ {
					sink += int(sad8(&cur, row, ref.W, c.earlyOut, &sums))
				}
				benchSink = sink
			})
		}
	})
}

// benchEachBody runs f as sub-benchmark prefix+name for each body in
// kernelBodies, with the dispatch switched to that body.
func benchEachBody(b *testing.B, prefix string, f func(b *testing.B)) {
	for _, body := range kernelBodies {
		b.Run(prefix+body.name, func(b *testing.B) {
			if body.skip != "" {
				b.Skip(body.skip)
			}
			if body.use != nil {
				defer body.use()()
			}
			f(b)
		})
	}
}

var benchSink int

// idctBenchBlocks returns BenchmarkIDCT's dense block, every coefficient
// drawn from [−2048, 2047], and the same block with row 0 raised to
// 32767 throughout, whose row pass leaves int16 (column 0 sums to about
// 86 600), so that the kernel declines it.
func idctBenchBlocks() (dense, declined Block) {
	state := uint32(7)
	for i := range dense {
		state = state*1664525 + 1013904223
		dense[i] = int16(int32(state>>20) - 2048)
	}
	declined = dense
	for u := 0; u < 8; u++ {
		declined[u] = 32767
	}
	return dense, declined
}

// BenchmarkIDCT times the inverse transform on one dense block, where
// every coefficient row is nonzero, and per block over the coded blocks
// of one decode of the Fig. 10 clip, about half of whose rows are all
// zero — the input a zero-row skip would have to win on — each on every
// body of the kernel (kernelBodies); and on one block the kernel
// declines, which pays its row pass and then the Go butterflies. The
// last claims nothing: no coded block is declined.
func BenchmarkIDCT(b *testing.B) {
	dense, declined := idctBenchBlocks()
	benchEachBody(b, "dense/", func(b *testing.B) {
		var out Block
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			IDCT(&dense, &out)
		}
	})
	benchEachBody(b, "coded/", func(b *testing.B) {
		blocks := loadCodedClip(b).coef
		var out Block
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			IDCT(&blocks[i%len(blocks)], &out)
		}
	})
	b.Run("declined", func(b *testing.B) {
		var out Block
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			IDCT(&declined, &out)
		}
	})
}

// BenchmarkRLSQTokensToCoef times the decode-direction RLSQ kernel per
// block over the coded blocks of one decode of the Fig. 10 clip.
func BenchmarkRLSQTokensToCoef(b *testing.B) {
	clip := loadCodedClip(b)
	var out Block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RLSQTokensToCoef(clip.events[i%len(clip.events)], clip.q, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFDCT times the forward transform of one block of residuals
// in [−128, 127] on each body of the kernel (kernelBodies).
func BenchmarkFDCT(b *testing.B) {
	var in Block
	state := uint32(11)
	for i := range in {
		state = state*1664525 + 1013904223
		in[i] = int16(int32(state>>24) - 128)
	}
	benchEachBody(b, "", func(b *testing.B) {
		var out Block
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			FDCT(&in, &out)
		}
	})
}

// BenchmarkEncodeMBRow measures the encoder's full per-frame pipeline
// (mode decision, motion search, transforms, entropy coding) on a
// small clip, normalized per macroblock row. The encoder is one serial
// raster pass, so this is single-core time.
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

// BenchmarkMotionSearch times MotionSearch per macroblock over every
// macroblock of one CIF frame pair of the synthetic source, at the codec
// default radius and three larger ones, so that the cost of the
// exhaustive grid at large radii is on record. It claims nothing about
// the rig.
func BenchmarkMotionSearch(b *testing.B) {
	frames := NewSource(DefaultSource(352, 288)).Frames(2)
	ref, cur := frames[0], frames[1]
	mbs := cur.MBCols() * cur.MBRows()
	for _, r := range []int{7, 15, 31, 63} {
		b.Run("r="+strconv.Itoa(r), func(b *testing.B) {
			var mb MBPixels
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				for mby := 0; mby < cur.MBRows(); mby++ {
					for mbx := 0; mbx < cur.MBCols(); mbx++ {
						cur.GetMB(mbx, mby, &mb)
						sink += MotionSearch(&mb, ref, mbx*MBSize, mby*MBSize, r).SAD
					}
				}
			}
			benchSink = sink
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*mbs), "µs/MB")
		})
	}
}
