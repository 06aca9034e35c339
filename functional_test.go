package eclipse

import (
	"testing"

	"eclipse/internal/media"
)

// TestThreeWayDecodeEquivalence is the repository's central correctness
// contract: the monolithic reference decoder, the functional Kahn-network
// decoder (goroutines + channels), and the cycle-accurate Eclipse-mapped
// decoder must produce bit-identical frames — Kahn's determinism theorem
// realized across three execution engines.
func TestThreeWayDecodeEquivalence(t *testing.T) {
	stream, _ := encodeSequence(t, 64, 48, 9, nil)

	ref, err := DecodeReference(stream)
	if err != nil {
		t.Fatal(err)
	}

	fun, err := RunFunctionalDecode(stream, DefaultDecodeBuffers())
	if err != nil {
		t.Fatal(err)
	}

	sys := NewSystem(Fig8())
	app, err := sys.AddDecodeApp("dec", stream, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	ecl := app.Frames()

	if len(ref) != len(fun) || len(ref) != len(ecl) {
		t.Fatalf("frame counts: ref=%d functional=%d eclipse=%d", len(ref), len(fun), len(ecl))
	}
	for i := range ref {
		if fun[i] == nil || !ref[i].Equal(fun[i]) {
			t.Fatalf("frame %d: functional decode differs from reference", i)
		}
		if ecl[i] == nil || !ref[i].Equal(ecl[i]) {
			t.Fatalf("frame %d: eclipse decode differs from reference", i)
		}
	}
}

// TestDuplicateDisplayIndexAgree rewrites coded frame 2's display index
// (B1, 18 bits into its header) to coded frame 1's (P3), so display 3 is
// decoded twice and display 1 never. Batch (DisplayFrames), the
// functional KPN and the timed Fig. 8 decode all accept the stream and
// must keep the same frame for every index: the last one decoded, and a
// nil for the hole.
func TestDuplicateDisplayIndexAgree(t *testing.T) {
	stream, _ := encodeSequence(t, 32, 32, 7, func(c *media.CodecConfig) { c.GOPN, c.GOPM = 7, 3 })
	ix, err := media.IndexGOPs(stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	dup := append([]byte(nil), stream...)
	tref := func(c, set int) (v int) {
		for i, bit := 0, ix.FrameBit(c)+18; i < 16; i, bit = i+1, bit+1 {
			v = v<<1 | int(dup[bit/8]>>(7-bit%8)&1)
			if set >= 0 {
				dup[bit/8] = dup[bit/8]&^(0x80>>(bit%8)) | byte(set>>(15-i)&1)<<(7-bit%8)
			}
		}
		return v
	}
	if a, b := tref(1, -1), tref(2, -1); a != 3 || b != 1 {
		t.Fatalf("coded frames 1 and 2 show displays %d and %d, want 3 and 1", a, b)
	}
	tref(2, 3)
	ref, err := media.Decode(dup)
	if err != nil {
		t.Fatal(err)
	}
	batch := ref.DisplayFrames()
	fun, err := RunFunctionalDecode(dup, DefaultDecodeBuffers())
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(Fig8())
	app, err := sys.AddDecodeApp("dec", dup, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	same := func(a, b *media.Frame) bool { return a == b || (a != nil && b != nil && a.Equal(b)) }
	for i, want := range batch {
		if (want == nil) != (i == 1) {
			t.Fatalf("batch display %d: nil %v", i, want == nil)
		}
		if !same(want, fun[i]) {
			t.Errorf("display %d: the functional decode keeps another frame than batch", i)
		}
		if !same(want, app.Frames()[i]) {
			t.Errorf("display %d: the timed decode keeps another frame than batch", i)
		}
	}
}

// TestFunctionalDecodeTinyBuffers checks Kahn determinism across buffer
// sizes in the functional engine: output must not depend on capacity.
func TestFunctionalDecodeTinyBuffers(t *testing.T) {
	stream, _ := encodeSequence(t, 48, 32, 5, nil)
	ref, err := DecodeReference(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []int{1, 4} {
		bufs := DecodeBuffers{
			Bits:  64 * scale,
			Tok:   900 * scale, // must hold one token record
			Hdr:   16 * scale,
			Coef:  media.MBCoefBytes * scale,
			Resid: media.MBCoefBytes * scale,
			Pix:   media.MBPixBytes * scale,
		}
		got, err := RunFunctionalDecode(stream, bufs)
		if err != nil {
			t.Fatalf("scale %d: %v", scale, err)
		}
		for i := range ref {
			if got[i] == nil || !ref[i].Equal(got[i]) {
				t.Fatalf("scale %d frame %d differs", scale, i)
			}
		}
	}
}

func TestFunctionalDecodeBadStream(t *testing.T) {
	if _, err := RunFunctionalDecode([]byte{1, 2, 3, 4, 5, 6, 7, 8}, DefaultDecodeBuffers()); err == nil {
		t.Fatal("expected error")
	}
}

func TestGenerateVideoAndEncodeAPI(t *testing.T) {
	frames := GenerateVideo(DefaultSource(48, 32), 4)
	stream, recon, stats, err := Encode(DefaultCodec(48, 32), frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(recon) != 4 || stats.TotalBits() == 0 {
		t.Fatal("encode outputs incomplete")
	}
	seq, err := ParseSeq(stream)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Frames != 4 || seq.W() != 48 {
		t.Fatalf("seq = %+v", seq)
	}
}

// TestHalfPelThreeWayEquivalence runs the three execution engines on a
// half-pel stream: the MPEG-2 MC mode flows through the whole stack.
func TestHalfPelThreeWayEquivalence(t *testing.T) {
	stream, _ := encodeSequence(t, 64, 48, 7, func(c *CodecConfig) { c.HalfPel = true })
	ref, err := DecodeReference(stream)
	if err != nil {
		t.Fatal(err)
	}
	fun, err := RunFunctionalDecode(stream, DefaultDecodeBuffers())
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(Fig8())
	app, err := sys.AddDecodeApp("dec", stream, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !ref[i].Equal(fun[i]) || !ref[i].Equal(app.Frames()[i]) {
			t.Fatalf("frame %d differs across engines", i)
		}
	}
}

// TestHalfPelEncodeAppBitExact runs the pipelined encoder with half-pel
// motion estimation, still bit-exact with the reference encoder.
func TestHalfPelEncodeAppBitExact(t *testing.T) {
	cfg := DefaultCodec(48, 32)
	cfg.HalfPel = true
	frames := GenerateVideo(DefaultSource(48, 32), 5)
	sys := NewSystem(Fig8())
	app, err := sys.AddEncodeApp("enc", cfg, frames, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := app.VerifyAgainstReference(cfg, frames); err != nil {
		t.Fatal(err)
	}
}
