package media

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestStagedDecodeMatchesReference rebuilds the decoder from the stage
// kernels via the streaming VLD and checks bit-exactness against the
// monolithic decoder — the correctness contract the Eclipse-mapped
// pipeline relies on.
func TestStagedDecodeMatchesReference(t *testing.T) {
	cfg := DefaultCodec(64, 48)
	stream, _, recon, _ := encodeTestSequence(t, cfg, 10)

	vld := NewStreamVLD()
	vld.Extend(stream)
	var (
		seq    SeqHeader
		refs   RefChain
		frame  *Frame
		hdr    FrameHdr
		mbIdx  int
		outSet []*Frame
	)
	for {
		ev, err := vld.Next()
		if err != nil {
			t.Fatalf("at %s: %v", vld.Progress(), err)
		}
		switch ev.Kind {
		case EventSeq:
			seq = ev.Seq
		case EventFrame:
			hdr = ev.Frame
			frame = NewFrame(seq.W(), seq.H())
			mbIdx = 0
		case EventMB:
			// RLSQ stage
			var coef, resid [BlocksPerMB]Block
			if err := RLSQDecodeMB(&ev.Tok, seq.Q, &coef); err != nil {
				t.Fatal(err)
			}
			// DCT stage
			IDCTMB(&coef, ev.Tok.CBP, &resid)
			// MC stage
			fwd, bwd := refs.Refs(hdr.Type)
			mbx, mby := mbIdx%seq.MBCols, mbIdx/seq.MBCols
			var pred, out MBPixels
			Predict(&pred, ev.MB.Mode, fwd, bwd, mbx*MBSize, mby*MBSize, ev.MB.FMV, ev.MB.BMV)
			Reconstruct(&out, &pred, &resid)
			frame.SetMB(mbx, mby, &out)
			mbIdx++
			if mbIdx == seq.MBCount() {
				refs.Advance(frame, hdr.Type)
				if int(hdr.TRef) >= len(outSet) {
					outSet = append(outSet, make([]*Frame, int(hdr.TRef)+1-len(outSet))...)
				}
				outSet[hdr.TRef] = frame
			}
		case EventEnd:
			for i, f := range outSet {
				if f == nil || !f.Equal(recon[i]) {
					t.Fatalf("frame %d: staged decode differs from encoder recon", i)
				}
			}
			return
		}
	}
}

// TestStreamVLDChunked feeds the bitstream one byte at a time, forcing
// ErrNeedData rollbacks mid-element, and checks the event sequence is
// identical to single-shot parsing.
func TestStreamVLDChunked(t *testing.T) {
	cfg := DefaultCodec(48, 32)
	stream, _, _, _ := encodeTestSequence(t, cfg, 6)

	collect := func(feed func(v *StreamVLD, fed *int)) []VLDEvent {
		v := NewStreamVLD()
		fed := 0
		var evs []VLDEvent
		retries := 0
		for {
			ev, err := v.Next()
			if errors.Is(err, ErrNeedData) {
				if fed >= len(stream) {
					t.Fatalf("needs data beyond stream end at %s", v.Progress())
				}
				feed(v, &fed)
				retries++
				if retries > len(stream)*8 {
					t.Fatal("no progress")
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
			if ev.Kind == EventEnd {
				return evs
			}
		}
	}

	oneShot := collect(func(v *StreamVLD, fed *int) {
		v.Extend(stream[*fed:])
		*fed = len(stream)
	})
	rng := rand.New(rand.NewSource(42))
	chunked := collect(func(v *StreamVLD, fed *int) {
		n := 1 + rng.Intn(7)
		if *fed+n > len(stream) {
			n = len(stream) - *fed
		}
		v.Extend(stream[*fed : *fed+n])
		*fed += n
	})

	if len(oneShot) != len(chunked) {
		t.Fatalf("event counts differ: %d vs %d", len(oneShot), len(chunked))
	}
	for i := range oneShot {
		a, b := oneShot[i], chunked[i]
		if a.Kind != b.Kind || a.MB != b.MB || a.Frame != b.Frame || a.Bits != b.Bits {
			t.Fatalf("event %d differs: %+v vs %+v", i, a, b)
		}
		if a.Tok.CBP != b.Tok.CBP || a.Tok.TokenCount() != b.Tok.TokenCount() {
			t.Fatalf("event %d tokens differ", i)
		}
	}
}

func TestStreamVLDCompact(t *testing.T) {
	cfg := DefaultCodec(48, 32)
	stream, _, _, _ := encodeTestSequence(t, cfg, 3)
	v := NewStreamVLD()
	v.Extend(stream)
	total := 0
	for {
		ev, err := v.Next()
		if err != nil {
			t.Fatal(err)
		}
		total += v.Compact()
		if ev.Kind == EventEnd {
			break
		}
	}
	if total > len(stream) || total < len(stream)-8 {
		t.Fatalf("compacted %d of %d bytes", total, len(stream))
	}
}

func TestStreamVLDCorruptionIsNotNeedData(t *testing.T) {
	cfg := DefaultCodec(32, 32)
	stream, _, _, _ := encodeTestSequence(t, cfg, 2)
	cp := make([]byte, len(stream))
	copy(cp, stream)
	cp[0] ^= 0xFF // destroy the magic
	v := NewStreamVLD()
	v.Extend(cp)
	_, err := v.Next()
	if err == nil || errors.Is(err, ErrNeedData) {
		t.Fatalf("err = %v, want corruption", err)
	}
}

func TestStreamVLDEventBitsSumToStream(t *testing.T) {
	cfg := DefaultCodec(32, 32)
	stream, _, _, _ := encodeTestSequence(t, cfg, 4)
	v := NewStreamVLD()
	v.Extend(stream)
	bits := 0
	for {
		ev, err := v.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EventEnd {
			break
		}
		bits += ev.Bits
	}
	if bits > len(stream)*8 || bits < (len(stream)-8)*8 {
		t.Fatalf("events account for %d bits of %d", bits, len(stream)*8)
	}
}

func TestRefChain(t *testing.T) {
	var rc RefChain
	i0, p1, b2 := NewFrame(16, 16), NewFrame(16, 16), NewFrame(16, 16)
	rc.Advance(i0, FrameI)
	if fwd, bwd := rc.Refs(FrameP); fwd != i0 || bwd != nil {
		t.Fatal("P refs after I")
	}
	rc.Advance(p1, FrameP)
	if fwd, bwd := rc.Refs(FrameB); fwd != i0 || bwd != p1 {
		t.Fatal("B refs after I,P")
	}
	rc.Advance(b2, FrameB) // B must not become a reference
	if fwd, bwd := rc.Refs(FrameB); fwd != i0 || bwd != p1 {
		t.Fatal("B frame polluted the reference chain")
	}
}

func TestMBSyntaxRoundTripAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mk := func(mode PredMode) (MBDecision, byte, [BlocksPerMB]Block) {
		dec := MBDecision{Mode: mode}
		if mode == PredFwd || mode == PredBi {
			dec.FMV = MV{int16(rng.Intn(15) - 7), int16(rng.Intn(15) - 7)}
		}
		if mode == PredBwd || mode == PredBi {
			dec.BMV = MV{int16(rng.Intn(15) - 7), int16(rng.Intn(15) - 7)}
		}
		var qzz [BlocksPerMB]Block
		cbp := byte(0)
		if mode != PredSkip {
			for b := 0; b < BlocksPerMB; b++ {
				if rng.Intn(2) == 0 {
					continue
				}
				for k := 0; k < 5; k++ {
					qzz[b][rng.Intn(64)] = int16(rng.Intn(9) - 4)
				}
				if NonzeroCount(&qzz[b]) > 0 {
					cbp |= 1 << b
				}
			}
		}
		return dec, cbp, qzz
	}
	cases := []struct {
		ftype FrameType
		modes []PredMode
	}{
		{FrameI, []PredMode{PredIntra}},
		{FrameP, []PredMode{PredIntra, PredFwd, PredSkip}},
		{FrameB, []PredMode{PredIntra, PredFwd, PredBwd, PredBi}},
	}
	for _, c := range cases {
		for trial := 0; trial < 30; trial++ {
			w := NewBitWriter()
			var emvp MVPredictor
			var want []MBDecision
			var wantTok []TokenMB
			for i := 0; i < 8; i++ {
				mode := c.modes[rng.Intn(len(c.modes))]
				dec, cbp, qzz := mk(mode)
				EncodeMBSyntax(w, c.ftype, dec, &emvp, cbp, &qzz)
				if mode == PredSkip {
					dec = MBDecision{Mode: PredSkip}
					cbp = 0
				}
				want = append(want, dec)
				tok := TokenMB{CBP: cbp}
				for b := 0; b < BlocksPerMB; b++ {
					if cbp&(1<<b) != 0 {
						tok.Events[b] = RunLength(&qzz[b])
					}
				}
				wantTok = append(wantTok, tok)
			}
			r := NewBitReader(w.Bytes())
			var dmvp MVPredictor
			for i := range want {
				dec, tok, err := ParseMBSyntax(r, c.ftype, &dmvp)
				if err != nil {
					t.Fatal(err)
				}
				if dec != want[i] {
					t.Fatalf("%v mb %d: dec %+v want %+v", c.ftype, i, dec, want[i])
				}
				if tok.CBP != wantTok[i].CBP {
					t.Fatalf("%v mb %d: cbp %x want %x", c.ftype, i, tok.CBP, wantTok[i].CBP)
				}
				for b := range tok.Events {
					if len(tok.Events[b]) != len(wantTok[i].Events[b]) {
						t.Fatalf("%v mb %d block %d: event count", c.ftype, i, b)
					}
					for k := range tok.Events[b] {
						if tok.Events[b][k] != wantTok[i].Events[b][k] {
							t.Fatalf("%v mb %d block %d ev %d", c.ftype, i, b, k)
						}
					}
				}
			}
		}
	}
}

func TestQuickTransformReconConsistent(t *testing.T) {
	// Property: TransformMB + RLSQDecodeMB + IDCTMB is the exact inverse
	// path the decoder runs, for any residual input.
	f := func(raw [256]int8, intra bool, qRaw uint8) bool {
		q := int(qRaw%20) + 1
		var resid [BlocksPerMB]Block
		for b := 0; b < BlocksPerMB; b++ {
			for i := 0; i < 64; i++ {
				resid[b][i] = int16(raw[b*64+i])
			}
		}
		qzz, cbp, _ := TransformMB(&resid, intra, q)
		tok := TokenMB{CBP: cbp}
		for b := 0; b < BlocksPerMB; b++ {
			if cbp&(1<<b) != 0 {
				tok.Events[b] = RunLength(&qzz[b])
			}
		}
		var coef, out [BlocksPerMB]Block
		if err := RLSQDecodeMB(&tok, q, &coef); err != nil {
			return false
		}
		IDCTMB(&coef, cbp, &out)
		// Independent check: direct dequantize + inverse-zigzag + IDCT.
		for b := 0; b < BlocksPerMB; b++ {
			var dzz, rm, want Block
			Dequantize(&qzz[b], &dzz, q)
			InverseZigzag(&dzz, &rm)
			if cbp&(1<<b) != 0 {
				IDCT(&rm, &want)
			}
			if out[b] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDecideMBIntraForUnpredictable(t *testing.T) {
	// Current content unrelated to the reference must go intra.
	ref := NewFrame(64, 64) // flat zero reference
	var mb MBPixels
	rng := rand.New(rand.NewSource(23))
	for i := range mb {
		mb[i] = byte(rng.Intn(256))
	}
	dec, ops := DecideMB(&mb, FrameP, 16, 16, ref, nil, 4, false)
	if dec.Mode != PredIntra {
		t.Fatalf("mode = %v, want intra", dec.Mode)
	}
	if ops == 0 {
		t.Fatal("no search ops reported")
	}
}

func TestDecideMBFwdForTranslation(t *testing.T) {
	ref := randomFrame(96, 96, 31)
	cur := NewFrame(96, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			cur.Pix[y*96+x] = ref.At(x+2, y+1)
		}
	}
	var mb MBPixels
	cur.GetMB(2, 2, &mb)
	dec, _ := DecideMB(&mb, FrameP, 32, 32, ref, nil, 4, false)
	if dec.Mode != PredFwd || dec.FMV != (MV{2, 1}) {
		t.Fatalf("dec = %+v", dec)
	}
}

func TestIsSkipMB(t *testing.T) {
	if !IsSkipMB(FrameP, MBDecision{Mode: PredFwd}, 0) {
		t.Fatal("skip expected")
	}
	if IsSkipMB(FrameP, MBDecision{Mode: PredFwd, FMV: MV{1, 0}}, 0) {
		t.Fatal("nonzero MV must not skip")
	}
	if IsSkipMB(FrameP, MBDecision{Mode: PredFwd}, 1) {
		t.Fatal("coded blocks must not skip")
	}
	if IsSkipMB(FrameB, MBDecision{Mode: PredFwd}, 0) {
		t.Fatal("B frames have no skip")
	}
	if IsSkipMB(FrameI, MBDecision{Mode: PredIntra}, 0) {
		t.Fatal("I frames have no skip")
	}
}
