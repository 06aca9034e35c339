package media

import (
	"testing"
)

// Regression tests for the stream-tail behavior of the two entropy fast
// paths: the BitReader's 8-byte refill window degrades to the byte-wise
// tail loop near the end of the buffer, and the Huffman LUT path must
// hand truncated input to the serial walk so the PastEnd/corrupt
// classification and bits-consumed accounting never depend on which
// path ran. The fuzz harnesses in fuzz_test.go explore the same
// properties randomly; these pin the exhaustive small cases in CI.

// TestBitReaderTailWindow checks ReadBits and PeekBits for every (bit
// position, width) pair over a short buffer, comparing against the
// bit-at-a-time reference. Positions in the last 8 bytes take the
// tailBits slow path; earlier ones take the 64-bit load, so the sweep
// covers both sides of the boundary at every alignment.
func TestBitReaderTailWindow(t *testing.T) {
	buf := []byte{0x8f, 0x01, 0xfe, 0x55, 0xaa, 0x33, 0xcc, 0x70, 0x0d, 0xb2, 0x41, 0xe7}
	total := len(buf) * 8
	for pos := 0; pos <= total; pos++ {
		for n := uint(0); n <= 32; n++ {
			r := NewBitReader(buf)
			r.Skip(uint(pos))
			if r.Err() != nil {
				t.Fatalf("Skip(%d): unexpected error %v", pos, r.Err())
			}
			if got, want := r.PeekBits(n), refBits(buf, pos, n, len(buf)); got != want {
				t.Fatalf("PeekBits(%d) at bit %d: got %#x, want %#x", n, pos, got, want)
			}
			got := r.ReadBits(n)
			if pos+int(n) > total {
				if r.Err() == nil || !r.PastEnd() {
					t.Fatalf("ReadBits(%d) at bit %d: want PastEnd, got value %#x err %v", n, pos, got, r.Err())
				}
				if r.BitPos() != pos {
					t.Fatalf("ReadBits(%d) at bit %d: failed read moved position to %d", n, pos, r.BitPos())
				}
				continue
			}
			if want := refBits(buf, pos, n, len(buf)); got != want {
				t.Fatalf("ReadBits(%d) at bit %d: got %#x, want %#x", n, pos, got, want)
			}
			if r.Err() != nil || r.BitPos() != pos+int(n) {
				t.Fatalf("ReadBits(%d) at bit %d: err %v, pos %d", n, pos, r.Err(), r.BitPos())
			}
		}
	}
}

// TestHuffDecodeTruncatedParity encodes every symbol of the production
// run/level table (all code lengths, including ones past the LUT span
// when present), then decodes every byte-truncated prefix with both the
// LUT-accelerated Decode and the serial walk. Each step must agree on
// symbol, bits consumed, reader position, and — at the point of failure
// — the PastEnd-vs-corrupt classification and the error text.
func TestHuffDecodeTruncatedParity(t *testing.T) {
	tab := coefTable
	w := NewBitWriter()
	var want []int
	for sym := range tab.codes {
		if tab.codes[sym].Len == 0 {
			continue
		}
		tab.Encode(w, sym)
		want = append(want, sym)
	}
	enc := w.Bytes()
	if len(want) < 3 {
		t.Fatalf("production table has only %d coded symbols", len(want))
	}
	for cut := 0; cut <= len(enc); cut++ {
		r1 := NewBitReader(enc[:cut])
		r2 := NewBitReader(enc[:cut])
		for step := 0; ; step++ {
			s1, b1 := tab.Decode(r1)
			s2, b2 := tab.decodeSerial(r2)
			if s1 != s2 || b1 != b2 {
				t.Fatalf("cut %d step %d: LUT (%d, %d) != serial (%d, %d)", cut, step, s1, b1, s2, b2)
			}
			if r1.BitPos() != r2.BitPos() {
				t.Fatalf("cut %d step %d: LUT pos %d != serial pos %d", cut, step, r1.BitPos(), r2.BitPos())
			}
			e1, e2 := r1.Err(), r2.Err()
			if (e1 == nil) != (e2 == nil) || r1.PastEnd() != r2.PastEnd() {
				t.Fatalf("cut %d step %d: LUT err %v (pastEnd %v) != serial err %v (pastEnd %v)",
					cut, step, e1, r1.PastEnd(), e2, r2.PastEnd())
			}
			if e1 != nil {
				if e1.Error() != e2.Error() {
					t.Fatalf("cut %d step %d: error text diverged: %q vs %q", cut, step, e1, e2)
				}
				break
			}
			if step < len(want) && cut == len(enc) {
				if s1 != want[step] {
					t.Fatalf("full stream step %d: decoded %d, want %d", step, s1, want[step])
				}
			}
			if step > len(want)+2 {
				break // trailing Align padding decoded as extra symbols
			}
		}
	}
}

// TestHuffDecodeLongCodes verifies the further LUT levels explicitly:
// when the table has codes longer than the first-level span, their
// prefix entries must point on to the levels that resolve them, and each
// must decode to its symbol and length.
func TestHuffDecodeLongCodes(t *testing.T) {
	// Exponential frequencies force a maximally skewed (deep) tree.
	freq := make([]uint64, 20)
	for i := range freq {
		freq[i] = 1 << uint(i)
	}
	lengths := HuffCodeLengths(freq)
	tab, errT := NewHuffTable(lengths)
	if errT != nil {
		t.Fatal(errT)
	}
	if uint(tab.maxLen) <= tab.lutBits {
		t.Fatalf("want codes longer than the %d-bit LUT, max is %d", tab.lutBits, tab.maxLen)
	}
	w := NewBitWriter()
	for sym := range freq {
		tab.Encode(w, sym)
	}
	r := NewBitReader(w.Bytes())
	for sym := range freq {
		got, bits := tab.Decode(r)
		if got != sym || bits != uint(lengths[sym]) || r.Err() != nil {
			t.Fatalf("symbol %d: got (%d, %d bits, err %v), want length %d", sym, got, bits, r.Err(), lengths[sym])
		}
	}
}

// runLevelEvents returns every coded event once: each table (run, ±level)
// pair, ESC at its extreme runs (0, 16, 63) and levels (±9, 2047, −2048),
// and EOB as the zero value last.
func runLevelEvents() []RunLevel {
	var evs []RunLevel
	for run := 0; run <= vlcMaxRun; run++ {
		for lvl := int32(1); lvl <= vlcMaxLevel; lvl++ {
			evs = append(evs, RunLevel{run, lvl}, RunLevel{run, -lvl})
		}
	}
	evs = append(evs, RunLevel{0, 9}, RunLevel{0, -9}, RunLevel{16, 1}, RunLevel{16, -1},
		RunLevel{63, MaxLevel}, RunLevel{63, -MaxLevel - 1}, RunLevel{0, -MaxLevel - 1}, RunLevel{63, 9})
	return append(evs, RunLevel{})
}

// encodeRunLevels writes pad zero bits, then evs, the zero value as EOB.
func encodeRunLevels(pad uint, evs []RunLevel) []byte {
	w := NewBitWriter()
	w.WriteBits(0, pad)
	for _, rl := range evs {
		if rl == (RunLevel{}) {
			EncodeEOB(w)
		} else {
			EncodeRunLevel(w, rl)
		}
	}
	return w.Bytes()
}
