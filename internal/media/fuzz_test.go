package media

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Fuzz harnesses for the two rewritten entropy-layer fast paths. Both
// compare the optimized implementation against a trivially-correct
// bit-at-a-time reference, so any divergence introduced by the 64-bit
// accumulator refill or the first-level decode LUT is caught directly.

// refBits reads n bits MSB first starting at absolute bit position pos,
// one bit at a time — the reference semantics of BitReader.ReadBits.
// Bits at or beyond endBytes*8 read as zero (PeekBits' tail padding).
func refBits(buf []byte, pos int, n uint, endBytes int) uint32 {
	var v uint32
	for i := 0; i < int(n); i++ {
		p := pos + i
		var b byte
		if p < endBytes*8 {
			b = (buf[p>>3] >> (7 - uint(p&7))) & 1
		}
		v = v<<1 | uint32(b)
	}
	return v
}

// FuzzBitReaderRoundTrip drives a write sequence through BitWriter,
// checks the serialized stream bit-for-bit against the reference, then
// reads it back through a BitReader exercising the streaming surface:
// a truncated initial buffer, Mark/Reset + Extend to cure PastEnd,
// PeekBits at arbitrary positions, and Compact mid-stream.
func FuzzBitReaderRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xff, 0x00, 0xab, 0xcd, 0x1f, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Add(bytes.Repeat([]byte{0x1f, 0xee, 0x55, 0xaa, 0x07}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		type wr struct {
			v uint32
			n uint
		}
		var writes []wr
		w := NewBitWriter()
		totalBits := 0
		for i := 0; i+5 <= len(data) && len(writes) < 256; i += 5 {
			n := uint(data[i]%32) + 1
			mask := ^uint32(0)
			if n < 32 {
				mask = 1<<n - 1
			}
			v := binary.LittleEndian.Uint32(data[i+1:]) & mask
			writes = append(writes, wr{v, n})
			w.WriteBits(v, n)
			totalBits += int(n)
			if got := w.BitLen(); got != totalBits {
				t.Fatalf("BitLen after %d writes = %d, want %d", len(writes), got, totalBits)
			}
		}
		stream := w.Bytes()
		if len(stream) != (totalBits+7)/8 {
			t.Fatalf("stream is %d bytes for %d bits", len(stream), totalBits)
		}

		// Writer check: the reference reader must reproduce every write.
		pos := 0
		for i, x := range writes {
			if got := refBits(stream, pos, x.n, len(stream)); got != x.v {
				t.Fatalf("write %d: stream holds %#x, wrote %#x (%d bits at bit %d)", i, got, x.v, x.n, pos)
			}
			pos += int(x.n)
		}

		// Reader check: start with a truncated buffer and cure PastEnd via
		// Mark/Reset + Extend, as the streaming VLD does.
		split := 0
		if len(data) > 0 {
			split = int(data[0]) % (len(stream) + 1)
		}
		r := NewBitReader(stream[:split])
		visible := split // bytes of stream the reader has been given
		dropped := 0     // bytes discarded by Compact
		pos = 0
		for i, x := range writes {
			m := r.Mark()
			got := r.ReadBits(x.n)
			if r.Err() != nil {
				if !r.PastEnd() {
					t.Fatalf("read %d: non-PastEnd error on truncation: %v", i, r.Err())
				}
				if visible == len(stream) {
					t.Fatalf("read %d: PastEnd with the full stream visible: %v", i, r.Err())
				}
				r.Reset(m)
				r.Extend(stream[visible:])
				visible = len(stream)
				got = r.ReadBits(x.n)
				if r.Err() != nil {
					t.Fatalf("read %d: error after Extend: %v", i, r.Err())
				}
			}
			if got != x.v {
				t.Fatalf("read %d: got %#x, want %#x (%d bits at bit %d)", i, got, x.v, x.n, pos)
			}
			pos += int(x.n)
			if abs := dropped*8 + r.BitPos(); abs != pos {
				t.Fatalf("read %d: absolute position %d, want %d", i, abs, pos)
			}
			// Peek with zero padding must match the padded reference over
			// the visible prefix, for any length including 0.
			pn := uint((i * 7) % 33)
			if got, want := r.PeekBits(pn), refBits(stream, pos, pn, visible); got != want {
				t.Fatalf("peek %d bits at bit %d: got %#x, want %#x", pn, pos, got, want)
			}
			if i%3 == 0 {
				dropped += r.Compact()
			}
		}
		if visible == len(stream) {
			if got, want := dropped*8+r.BitPos(), totalBits; got != want {
				t.Fatalf("final absolute position %d, want %d", got, want)
			}
		}
	})
}

// FuzzHuffDecode builds a Huffman table from fuzzed frequencies and
// checks that the LUT-accelerated Decode and the bit-serial canonical
// walk agree symbol-for-symbol — on a valid encoded sequence and on raw
// fuzz bytes (where invalid codes and truncation must produce the same
// symbol, bit count, position, and error classification).
func FuzzHuffDecode(f *testing.F) {
	f.Add([]byte{1, 1}, []byte{0x00})
	f.Add([]byte{9, 3, 3, 1, 1, 0, 200, 45}, []byte{0xde, 0xad, 0xbe, 0xef, 0x01})
	f.Add(bytes.Repeat([]byte{1}, 40), bytes.Repeat([]byte{0x5a}, 16))
	f.Fuzz(func(t *testing.T, freqData, stream []byte) {
		nsym := len(freqData)
		if nsym < 2 {
			return
		}
		if nsym > 64 {
			nsym = 64
		}
		freq := make([]uint64, nsym)
		for i := 0; i < nsym; i++ {
			// Skew so deep (> huffLUTBits) codes appear for larger nsym.
			freq[i] = uint64(freqData[i]) << (uint(i) % 24)
		}
		lengths := HuffCodeLengths(freq)
		tab, err := NewHuffTable(lengths)
		if err != nil {
			t.Fatalf("NewHuffTable: %v", err)
		}
		if tab.maxLen == 0 {
			return // all frequencies zero: nothing to decode
		}

		// Round trip: encode a symbol sequence, decode it back with the
		// LUT path, and cross-check every step against the serial walk.
		var coded []int
		for s, l := range lengths {
			if l > 0 {
				coded = append(coded, s)
			}
		}
		w := NewBitWriter()
		var seq []int
		for _, b := range stream {
			sym := coded[int(b)%len(coded)]
			seq = append(seq, sym)
			tab.Encode(w, sym)
		}
		enc := w.Bytes()
		r := NewBitReader(enc)
		rs := NewBitReader(enc)
		for i, want := range seq {
			sym, bits := tab.Decode(r)
			ssym, sbits := tab.decodeSerial(rs)
			if sym != want || bits != uint(lengths[want]) || r.Err() != nil {
				t.Fatalf("decode %d: got (%d, %d bits, err %v), want symbol %d in %d bits", i, sym, bits, r.Err(), want, lengths[want])
			}
			if sym != ssym || bits != sbits || r.BitPos() != rs.BitPos() {
				t.Fatalf("decode %d: LUT (%d, %d, pos %d) != serial (%d, %d, pos %d)", i, sym, bits, r.BitPos(), ssym, sbits, rs.BitPos())
			}
		}

		// Adversarial: decode the raw fuzz bytes with both paths until the
		// first error; every step must agree exactly, including how the
		// final failure is classified (PastEnd vs corruption).
		r1 := NewBitReader(freqData)
		r2 := NewBitReader(freqData)
		for step := 0; step < 8*len(freqData)+2; step++ {
			s1, b1 := tab.Decode(r1)
			s2, b2 := tab.decodeSerial(r2)
			if s1 != s2 || b1 != b2 {
				t.Fatalf("step %d: LUT (%d, %d) != serial (%d, %d)", step, s1, b1, s2, b2)
			}
			if r1.BitPos() != r2.BitPos() {
				t.Fatalf("step %d: LUT pos %d != serial pos %d", step, r1.BitPos(), r2.BitPos())
			}
			e1, e2 := r1.Err(), r2.Err()
			if (e1 == nil) != (e2 == nil) || r1.PastEnd() != r2.PastEnd() {
				t.Fatalf("step %d: LUT err %v (pastEnd %v) != serial err %v (pastEnd %v)", step, e1, r1.PastEnd(), e2, r2.PastEnd())
			}
			if e1 != nil {
				if e1.Error() != e2.Error() {
					t.Fatalf("step %d: error text diverged: %q vs %q", step, e1, e2)
				}
				break
			}
		}
	})
}
