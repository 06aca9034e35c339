package media

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHuffLengthsSimple(t *testing.T) {
	// Classic example: weights 1,1,2,4 yield lengths 3,3,2,1.
	lengths := HuffCodeLengths([]uint64{1, 1, 2, 4})
	want := []uint8{3, 3, 2, 1}
	for i := range want {
		if lengths[i] != want[i] {
			t.Fatalf("lengths = %v, want %v", lengths, want)
		}
	}
}

func TestHuffSingleSymbol(t *testing.T) {
	lengths := HuffCodeLengths([]uint64{0, 5, 0})
	if lengths[1] != 1 || lengths[0] != 0 || lengths[2] != 0 {
		t.Fatalf("lengths = %v", lengths)
	}
	tab, err := NewHuffTable(lengths)
	if err != nil {
		t.Fatal(err)
	}
	w := NewBitWriter()
	tab.Encode(w, 1)
	r := NewBitReader(w.Bytes())
	if sym, _ := tab.Decode(r); sym != 1 {
		t.Fatalf("sym = %d", sym)
	}
}

func TestHuffEmpty(t *testing.T) {
	tab, err := NewHuffTable(HuffCodeLengths(nil))
	if err != nil {
		t.Fatal(err)
	}
	r := NewBitReader([]byte{0xFF})
	if sym, _ := tab.Decode(r); sym != -1 || r.Err() == nil {
		t.Fatal("decoding with empty table must fail")
	}
}

func TestHuffKraftViolationRejected(t *testing.T) {
	// Three codes of length 1 violate Kraft.
	if _, err := NewHuffTable([]uint8{1, 1, 1}); err == nil {
		t.Fatal("expected oversubscription error")
	}
}

func TestHuffCanonicalOrdering(t *testing.T) {
	// Codes of equal length must be consecutive, ordered by symbol index,
	// and lexicographically after all shorter codes.
	tab, err := NewHuffTable([]uint8{2, 2, 2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1, c2 := tab.codes[0], tab.codes[1], tab.codes[2]
	if c0.Bits != 0 || c1.Bits != 1 || c2.Bits != 2 {
		t.Fatalf("codes: %+v %+v %+v", c0, c1, c2)
	}
	c3, c4 := tab.codes[3], tab.codes[4]
	if c3.Bits != 6 || c4.Bits != 7 { // (2+1)<<1 = 6
		t.Fatalf("len-3 codes: %+v %+v", c3, c4)
	}
}

func TestHuffDeterministic(t *testing.T) {
	freq := []uint64{7, 7, 7, 7, 3, 3, 1}
	a := HuffCodeLengths(freq)
	b := HuffCodeLengths(freq)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic lengths: %v vs %v", a, b)
		}
	}
}

func TestHuffRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		nsym := 2 + rng.Intn(200)
		freq := make([]uint64, nsym)
		for i := range freq {
			if rng.Intn(5) > 0 { // some symbols unused
				freq[i] = uint64(rng.Intn(1000) + 1)
			}
		}
		// Ensure at least two used symbols.
		freq[0], freq[1] = 1000, 1
		tab, err := NewHuffTable(HuffCodeLengths(freq))
		if err != nil {
			t.Fatal(err)
		}
		var msg []int
		w := NewBitWriter()
		for i := 0; i < 500; i++ {
			s := rng.Intn(nsym)
			if freq[s] == 0 {
				continue
			}
			msg = append(msg, s)
			tab.Encode(w, s)
		}
		r := NewBitReader(w.Bytes())
		for i, s := range msg {
			got, _ := tab.Decode(r)
			if got != s {
				t.Fatalf("trial %d sym %d: got %d want %d", trial, i, got, s)
			}
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
}

func TestQuickHuffPrefixFree(t *testing.T) {
	// Property: generated code sets are prefix-free.
	f := func(rawFreq []uint16) bool {
		if len(rawFreq) < 2 {
			return true
		}
		if len(rawFreq) > 64 {
			rawFreq = rawFreq[:64]
		}
		freq := make([]uint64, len(rawFreq))
		used := 0
		for i, v := range rawFreq {
			freq[i] = uint64(v)
			if v > 0 {
				used++
			}
		}
		if used < 2 {
			return true
		}
		tab, err := NewHuffTable(HuffCodeLengths(freq))
		if err != nil {
			return false
		}
		var codes []HuffCode
		for s := range freq {
			if c := tab.codes[s]; c.Len > 0 {
				codes = append(codes, c)
			}
		}
		for i := range codes {
			for j := range codes {
				if i == j {
					continue
				}
				a, b := codes[i], codes[j]
				if a.Len > b.Len {
					a, b = b, a
				}
				if b.Bits>>(b.Len-a.Len) == a.Bits && a.Len == b.Len && a.Bits == b.Bits {
					return false // duplicate code
				}
				if a.Len < b.Len && b.Bits>>(b.Len-a.Len) == a.Bits {
					return false // prefix
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffDecodeGarbage(t *testing.T) {
	// With a complete code (Kraft equality) every bit pattern decodes to
	// some symbol until the stream runs out; a truncated stream errors.
	tab, err := NewHuffTable(HuffCodeLengths([]uint64{10, 5, 3, 1}))
	if err != nil {
		t.Fatal(err)
	}
	r := NewBitReader([]byte{})
	if sym, _ := tab.Decode(r); sym != -1 {
		t.Fatalf("empty stream decoded to %d", sym)
	}
	if r.Err() == nil {
		t.Fatal("expected error")
	}
}
