package media

import (
	"math"
	"testing"
)

func TestFetchHalfIntegerPositionsMatchFetch(t *testing.T) {
	ref := randomFrame(64, 64, 41)
	var a, b MBPixels
	for _, pos := range [][2]int{{0, 0}, {16, 8}, {-4, 60}} {
		fetchHalf(&a, ref, 2*pos[0], 2*pos[1])
		fetch(&b, ref, pos[0], pos[1])
		if a != b {
			t.Fatalf("integer half-pel position %v differs from full-pel fetch", pos)
		}
	}
}

func TestFetchHalfInterpolation(t *testing.T) {
	// A horizontal gradient: half-pel x positions must land between the
	// neighboring integer samples with MPEG rounding.
	ref := NewFrame(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			ref.Pix[y*32+x] = byte(10 * x)
		}
	}
	var p MBPixels
	fetchHalf(&p, ref, 2*4+1, 2*4) // x = 4.5, y = 4
	if p[0] != 45 {                // (40+50+1)/2
		t.Fatalf("h interp = %d, want 45", p[0])
	}
	fetchHalf(&p, ref, 2*4, 2*4+1) // vertical half on a horizontal gradient
	if p[0] != 40 {                // rows identical: (40+40+1)/2
		t.Fatalf("v interp = %d, want 40", p[0])
	}
	fetchHalf(&p, ref, 2*4+1, 2*4+1) // both
	if p[0] != 45 {                  // (40+50+40+50+2)/4
		t.Fatalf("hv interp = %d, want 45", p[0])
	}
}

func TestRefineHalfPelFindsSubpelShift(t *testing.T) {
	// Current block = reference interpolated at a known half-pel offset;
	// refinement must recover exactly that vector.
	ref := NewFrame(96, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			ref.Pix[y*96+x] = byte((x*x + 3*y*y) % 251) // smooth-ish, unique
		}
	}
	var cur MBPixels
	const hx, hy = 2*3 + 1, 2 * 1 // (+3.5, +1.0) in pixels
	fetchHalf(&cur, ref, 2*32+hx, 2*32+hy)

	full := MotionSearch(&cur, ref, 32, 32, 7)
	mv, sad, ops := RefineHalfPel(&cur, ref, 32, 32, full.MV, full.SAD)
	if ops != 8 {
		t.Fatalf("ops = %d", ops)
	}
	if mv != (MV{hx, hy}) || sad != 0 {
		t.Fatalf("refined to %+v sad=%d, want {%d %d} sad=0", mv, sad, hx, hy)
	}
}

func TestHalfPelRoundTripBitExact(t *testing.T) {
	cfg := DefaultCodec(64, 48)
	cfg.HalfPel = true
	src := NewSource(DefaultSource(64, 48))
	frames := src.Frames(8)
	stream, recon, _, err := Encode(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Seq.HalfPel {
		t.Fatal("half-pel flag lost in the sequence header")
	}
	for i, f := range res.DisplayFrames() {
		if !f.Equal(recon[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestHalfPelImprovesPrediction(t *testing.T) {
	// Half-pel MC pays off on genuine sub-pixel motion, which the
	// integer-stepping synthetic Source cannot produce. Build frames by
	// sampling a smooth pattern translating half a pixel per frame: full-
	// pel prediction is then systematically half a sample off, and
	// half-pel compensation must cut the coded bits markedly.
	const w, h, n = 64, 48, 8
	frames := make([]*Frame, n)
	for k := 0; k < n; k++ {
		f := NewFrame(w, h)
		shift := 0.5 * float64(k)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := 110 +
					70*math.Sin(0.35*(float64(x)-shift)) +
					35*math.Sin(0.22*float64(y)+0.9)
				f.Pix[y*w+x] = clampByte(int(v))
			}
		}
		frames[k] = f
	}
	size := func(halfPel bool) int {
		cfg := DefaultCodec(w, h)
		cfg.GOPM = 1
		cfg.GOPN = n
		cfg.HalfPel = halfPel
		_, _, stats, err := Encode(cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		return stats.TotalBits()
	}
	full, half := size(false), size(true)
	if float64(half) > 0.9*float64(full) {
		t.Errorf("half-pel (%d bits) not clearly smaller than full-pel (%d bits)", half, full)
	}
	t.Logf("full-pel %d bits, half-pel %d bits (%.2fx)", full, half, float64(half)/float64(full))
}

func TestSeqHeaderHalfPelRoundTrip(t *testing.T) {
	for _, hp := range []bool{false, true} {
		h := SeqHeader{MBCols: 4, MBRows: 3, Q: 6, GOPN: 12, GOPM: 3, Frames: 5, HalfPel: hp}
		w := NewBitWriter()
		WriteSeqHeader(w, &h)
		got, err := ParseSeqHeader(NewBitReader(w.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("got %+v want %+v", got, h)
		}
	}
}
