// Package media implements a simplified MPEG-2-class video codec used as
// the workload substrate for the Eclipse architecture model.
//
// The paper's evaluation decodes and encodes MPEG-2; conformant MPEG-2 is
// out of scope here, but the phenomena Eclipse is designed around depend
// only on the *structure* of such codecs, which this package reproduces
// faithfully:
//
//   - variable-length entropy coding (canonical Huffman over run/level
//     events) so that the VLD workload is data dependent;
//   - 8×8 block DCT with quantization and zigzag scanning;
//   - macroblocks, motion estimation/compensation, and I/P/B frame types
//     in MPEG GOP structures, so per-frame-type workload shifts between
//     pipeline stages exactly as in Figure 10 of the paper;
//   - a closed reconstruction loop, so encoder and decoder reference
//     frames match bit-exactly and streams round-trip deterministically.
//
// The codec is organized both as a monolithic reference encoder/decoder
// and as the individual pipeline stages (VLD, RLSQ, DCT, MC) with defined
// inter-stage stream formats, which the Eclipse coprocessor models in
// package copro execute as Kahn tasks.
package media

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// BitWriter assembles a bitstream MSB first.
//
// Bits accumulate into a 64-bit register and are flushed to the byte
// buffer 32 bits at a time, so the per-call cost is one shift/or plus an
// occasional 4-byte append instead of a byte-loop on every write. The
// accumulator invariant: outside a call, nacc < 32 and the low nacc bits
// of acc are the pending (unflushed) bits; anything above them is stale
// and masked off by the uint32 truncation at flush time.
type BitWriter struct {
	buf  []byte
	acc  uint64
	nacc uint // bits currently pending in acc (invariant: < 32)
}

// NewBitWriter returns an empty bit writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// WriteBits appends the low n bits of v, most significant first.
// n must be at most 32.
func (w *BitWriter) WriteBits(v uint32, n uint) {
	if n > 32 {
		panic("media: WriteBits n > 32")
	}
	w.acc = w.acc<<n | uint64(v)&((1<<n)-1)
	w.nacc += n
	if w.nacc >= 32 {
		w.nacc -= 32
		word := uint32(w.acc >> w.nacc)
		w.buf = append(w.buf, byte(word>>24), byte(word>>16), byte(word>>8), byte(word))
	}
}

// WriteBit appends a single bit.
func (w *BitWriter) WriteBit(b uint32) { w.WriteBits(b, 1) }

// WriteUE appends v in unsigned Exp-Golomb code.
func (w *BitWriter) WriteUE(v uint32) {
	vv := uint64(v) + 1
	n := uint(0)
	for t := vv; t > 1; t >>= 1 {
		n++
	}
	w.WriteBits(0, n)
	// vv has n+1 significant bits; write them all.
	w.WriteBits(uint32(vv>>n), 1)
	if n > 0 {
		w.WriteBits(uint32(vv&((1<<n)-1)), n)
	}
}

// WriteSE appends v in signed Exp-Golomb code (0, 1, -1, 2, -2, ...).
func (w *BitWriter) WriteSE(v int32) {
	if v <= 0 {
		w.WriteUE(uint32(-2 * v))
	} else {
		w.WriteUE(uint32(2*v - 1))
	}
}

// AppendBits appends every bit written to src so far — its flushed bytes
// plus its unaligned pending tail — onto w, preserving bit positions
// exactly. src is left unchanged, so it can be appended again or written
// to further. This is the bitstream stitcher's primitive: segment
// encoders write headerless, unaligned bit runs, and AppendBits splices
// them at arbitrary bit offsets so the concatenation is bit-identical to
// a single-writer encode.
func (w *BitWriter) AppendBits(src *BitWriter) {
	for _, b := range src.buf {
		w.WriteBits(uint32(b), 8)
	}
	// Invariant nacc < 32, so the pending tail fits one WriteBits call.
	if src.nacc > 0 {
		w.WriteBits(uint32(src.acc&(1<<src.nacc-1)), src.nacc)
	}
}

// Align pads with zero bits to the next byte boundary and drains the
// accumulator so buf holds every complete byte written so far.
func (w *BitWriter) Align() {
	if rem := w.nacc & 7; rem != 0 {
		w.WriteBits(0, 8-rem)
	}
	for w.nacc >= 8 {
		w.nacc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nacc))
	}
}

// BitLen returns the number of bits written so far.
func (w *BitWriter) BitLen() int { return len(w.buf)*8 + int(w.nacc) }

// Bytes flushes to a byte boundary and returns the accumulated stream.
func (w *BitWriter) Bytes() []byte {
	w.Align()
	return w.buf
}

// ErrBitstream reports a malformed or truncated bitstream.
var ErrBitstream = errors.New("media: malformed bitstream")

// BitReader consumes a bitstream MSB first. Read errors are sticky: after
// the first failure all subsequent reads return zero values and Err
// reports the failure. PastEnd distinguishes "ran out of bytes" (which a
// streaming consumer can cure by calling Extend and retrying from a saved
// position) from genuine corruption.
type BitReader struct {
	buf     []byte
	pos     int // bit position
	err     error
	pastEnd bool
}

// NewBitReader reads from data.
func NewBitReader(data []byte) *BitReader { return &BitReader{buf: data} }

// Err returns the sticky error, if any.
func (r *BitReader) Err() error { return r.err }

// BitPos returns the current position in bits from the stream start.
func (r *BitReader) BitPos() int { return r.pos }

func (r *BitReader) fail() uint32 {
	if r.err == nil {
		r.err = fmt.Errorf("%w: read past end at bit %d", ErrBitstream, r.pos)
		r.pastEnd = true
	}
	return 0
}

// failCorrupt records a non-recoverable stream error (one that more input
// bytes cannot cure).
func (r *BitReader) failCorrupt(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBitstream, fmt.Sprintf(format, args...))
	}
}

// PastEnd reports whether the sticky error was caused by running out of
// input bytes (curable with Extend) rather than corruption.
func (r *BitReader) PastEnd() bool { return r.pastEnd }

// Extend appends more input bytes, for streaming consumers that receive
// the bitstream in chunks.
func (r *BitReader) Extend(data []byte) { r.buf = append(r.buf, data...) }

// readerMark is a saved reader position for retry-after-extend.
type readerMark struct {
	pos     int
	err     error
	pastEnd bool
}

// Mark saves the reader position and error state.
func (r *BitReader) Mark() readerMark { return readerMark{r.pos, r.err, r.pastEnd} }

// Reset restores a previously saved position and error state.
func (r *BitReader) Reset(m readerMark) { r.pos, r.err, r.pastEnd = m.pos, m.err, m.pastEnd }

// Compact discards fully consumed bytes from the front of the buffer and
// returns how many were dropped, bounding memory for streaming use.
func (r *BitReader) Compact() int {
	n := r.pos >> 3
	if n == 0 {
		return 0
	}
	r.buf = r.buf[n:]
	r.pos -= n * 8
	return n
}

// ReadBits reads n (≤ 32) bits MSB first.
//
// Fast path: when at least 8 bytes remain at the current byte offset, a
// single big-endian 64-bit load covers any ≤32-bit extraction regardless
// of bit alignment (offset ≤ 7 + n ≤ 32 ⇒ 39 bits ≤ 64). The tail slow
// path assembles the same 64-bit window byte-by-byte with zero padding;
// the padding never leaks into the result because the bounds check has
// already guaranteed pos+n ≤ len(buf)*8.
func (r *BitReader) ReadBits(n uint) uint32 {
	if n > 32 {
		panic("media: ReadBits n > 32")
	}
	if r.err != nil {
		return 0
	}
	pos := r.pos
	if pos+int(n) > len(r.buf)*8 {
		return r.fail()
	}
	r.pos = pos + int(n)
	if byteIdx := pos >> 3; byteIdx+8 <= len(r.buf) {
		w := binary.BigEndian.Uint64(r.buf[byteIdx:])
		return uint32(w << uint(pos&7) >> (64 - n))
	}
	return r.tailBits(pos, n)
}

// tailBits extracts n bits starting at bit position pos from the final
// <8 bytes of the buffer, zero-padding beyond the end. Shared by the
// ReadBits and PeekBits slow paths.
func (r *BitReader) tailBits(pos int, n uint) uint32 {
	base := pos >> 3
	var w uint64
	for i := 0; i < 8; i++ {
		w <<= 8
		if j := base + i; j < len(r.buf) {
			w |= uint64(r.buf[j])
		}
	}
	return uint32(w << uint(pos&7) >> (64 - n))
}

// ReadBit reads a single bit.
func (r *BitReader) ReadBit() uint32 { return r.ReadBits(1) }

// PeekBits returns up to n (≤ 32) upcoming bits without consuming them,
// zero-padded past the end of the stream (for VLC decode at stream tail).
func (r *BitReader) PeekBits(n uint) uint32 {
	if n > 32 {
		panic("media: PeekBits n > 32")
	}
	pos := r.pos
	if byteIdx := pos >> 3; byteIdx+8 <= len(r.buf) {
		w := binary.BigEndian.Uint64(r.buf[byteIdx:])
		return uint32(w << uint(pos&7) >> (64 - n))
	}
	return r.tailBits(pos, n)
}

// Skip advances the read position by n bits.
func (r *BitReader) Skip(n uint) {
	if r.err != nil {
		return
	}
	if r.pos+int(n) > len(r.buf)*8 {
		r.fail()
		return
	}
	r.pos += int(n)
}

// ReadUE reads an unsigned Exp-Golomb code.
func (r *BitReader) ReadUE() uint32 {
	if r.err != nil {
		return 0
	}
	n := uint(0)
	for r.ReadBits(1) == 0 {
		if r.err != nil {
			return 0
		}
		n++
		if n > 32 {
			r.failCorrupt("exp-golomb prefix longer than 32 at bit %d", r.pos)
			return 0
		}
	}
	if n == 0 {
		return 0
	}
	rest := r.ReadBits(n)
	return (1<<n | rest) - 1
}

// ReadSE reads a signed Exp-Golomb code.
func (r *BitReader) ReadSE() int32 {
	u := r.ReadUE()
	if u&1 == 1 {
		return int32(u/2) + 1
	}
	return -int32(u / 2)
}
