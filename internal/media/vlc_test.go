package media

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunLevelRoundTripTable(t *testing.T) {
	cases := []RunLevel{
		{0, 1}, {0, -1}, {0, 8}, {0, -8},
		{1, 1}, {15, 1}, {15, -8},
		{0, 9},  // escape: level beyond table
		{16, 1}, // escape: run beyond table
		{63, 100}, {5, -2047}, {0, 2047}, {40, -1},
	}
	for _, c := range cases {
		w := NewBitWriter()
		EncodeRunLevel(w, c)
		EncodeEOB(w)
		r := NewBitReader(w.Bytes())
		got, eob, bits := DecodeRunLevel(r)
		if eob || got != c {
			t.Errorf("roundtrip %+v: got %+v eob=%v", c, got, eob)
		}
		if bits == 0 {
			t.Errorf("bits consumed = 0 for %+v", c)
		}
		if _, eob, _ := DecodeRunLevel(r); !eob {
			t.Errorf("missing EOB after %+v", c)
		}
		if r.Err() != nil {
			t.Errorf("err: %v", r.Err())
		}
	}
}

func TestQuickRunLevelRoundTrip(t *testing.T) {
	f := func(runs []uint8, levels []int16) bool {
		n := len(runs)
		if len(levels) < n {
			n = len(levels)
		}
		w := NewBitWriter()
		var msg []RunLevel
		for i := 0; i < n; i++ {
			lvl := int32(levels[i])
			if lvl == 0 {
				lvl = 1
			}
			if lvl > MaxLevel {
				lvl = MaxLevel
			}
			if lvl < -MaxLevel {
				lvl = -MaxLevel
			}
			rl := RunLevel{Run: int(runs[i] % 64), Level: lvl}
			msg = append(msg, rl)
			EncodeRunLevel(w, rl)
		}
		EncodeEOB(w)
		r := NewBitReader(w.Bytes())
		for _, want := range msg {
			got, eob, _ := DecodeRunLevel(r)
			if eob || got != want {
				return false
			}
		}
		_, eob, _ := DecodeRunLevel(r)
		return eob && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLengthRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		var zz Block
		for i := range zz {
			if rng.Intn(4) == 0 {
				zz[i] = int16(rng.Intn(401) - 200)
			}
		}
		events := RunLength(&zz)
		var back Block
		if !RunLengthExpand(events, &back) {
			t.Fatal("expand failed")
		}
		if back != zz {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}

func TestRunLengthAllZero(t *testing.T) {
	var zz Block
	if events := RunLength(&zz); len(events) != 0 {
		t.Fatalf("events = %v", events)
	}
}

func TestRunLengthDense(t *testing.T) {
	var zz Block
	for i := range zz {
		zz[i] = int16(i + 1)
	}
	events := RunLength(&zz)
	if len(events) != 64 {
		t.Fatalf("len = %d", len(events))
	}
	for _, e := range events {
		if e.Run != 0 {
			t.Fatalf("dense block must have zero runs, got %+v", e)
		}
	}
}

func TestRunLengthExpandRejectsOverflow(t *testing.T) {
	var zz Block
	if RunLengthExpand([]RunLevel{{Run: 63, Level: 1}, {Run: 1, Level: 1}}, &zz) {
		t.Fatal("expected overflow rejection")
	}
	if RunLengthExpand([]RunLevel{{Run: 0, Level: 0}}, &zz) {
		t.Fatal("expected zero-level rejection")
	}
	if !RunLengthExpand([]RunLevel{{Run: 63, Level: 1}}, &zz) {
		t.Fatal("position 63 must be accepted")
	}
	if zz[63] != 1 {
		t.Fatal("wrong expansion")
	}
}

func TestVLCCompression(t *testing.T) {
	// Typical sparse statistics should code well below raw size. Raw is
	// 16 bits/coefficient; expect far less for a mostly-zero block.
	var zz Block
	zz[0], zz[1], zz[5], zz[20] = 30, -4, 2, 1
	w := NewBitWriter()
	for _, rl := range RunLength(&zz) {
		EncodeRunLevel(w, rl)
	}
	EncodeEOB(w)
	if w.BitLen() >= 128 {
		t.Fatalf("sparse block coded in %d bits", w.BitLen())
	}
}

func TestVLCBitsAreDataDependent(t *testing.T) {
	// A dense block must cost more bits than a sparse one — the property
	// that makes the VLD coprocessor's workload irregular.
	size := func(fill int) int {
		var zz Block
		for i := 0; i < fill; i++ {
			zz[i] = int16(1 + i%7)
		}
		w := NewBitWriter()
		for _, rl := range RunLength(&zz) {
			EncodeRunLevel(w, rl)
		}
		EncodeEOB(w)
		return w.BitLen()
	}
	if sparse, dense := size(2), size(50); dense <= sparse*3 {
		t.Fatalf("dense=%d sparse=%d: insufficient data dependence", dense, sparse)
	}
}

// TestVLDDoesNotAllocate pins the entropy decode at zero allocations:
// DecodeRunLevel on the window path (8 bytes left) and on the tail path,
// and HuffTable.Decode on ESC, a code the LUT's second level resolves.
func TestVLDDoesNotAllocate(t *testing.T) {
	esc := RunLevel{Run: 40, Level: -300}
	long := encodeRunLevels(0, []RunLevel{esc, esc, esc})
	tail := encodeRunLevels(0, []RunLevel{esc})
	r := NewBitReader(nil)
	checkZeroAllocs(t, []allocCase{
		{"DecodeRunLevel window", func() {
			*r = BitReader{buf: long}
			if rl, _, _ := DecodeRunLevel(r); rl != esc {
				t.Fatalf("window decoded %+v", rl)
			}
		}},
		{"DecodeRunLevel tail", func() {
			*r = BitReader{buf: tail}
			if rl, _, _ := DecodeRunLevel(r); rl != esc {
				t.Fatalf("tail decoded %+v", rl)
			}
		}},
		{"HuffTable.Decode second level", func() {
			*r = BitReader{buf: long}
			if sym, _ := coefTable.Decode(r); sym != symESC {
				t.Fatalf("decoded symbol %d", sym)
			}
		}},
	})
}
