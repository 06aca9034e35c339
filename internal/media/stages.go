package media

import "fmt"

// This file decomposes the codec into the pipeline-stage kernels that the
// Eclipse coprocessor models execute (VLD, RLSQ, DCT, MC/ME). The
// monolithic Encoder/Decoder are built from the same functions (the
// decoder's fused VLD and RLSQ held to them by a contract test), so the
// reference, Kahn-network and cycle-accurate codecs are bit-exact.

// TokenMB is the entropy-decoded representation of one macroblock's
// coefficient data: the coded block pattern and, for each coded block,
// its run/level events in zigzag order. It is what the VLD sends to the
// RLSQ coprocessor.
//
// The per-block Events slices are views into a single flat arena owned
// by the TokenMB, so a reused token (Reset + one of the *Into parsers)
// decodes macroblocks without allocating. Ownership rule: the Events
// views are valid until the owning token's next Reset; consumers that
// need the events past that point must copy them.
type TokenMB struct {
	CBP    byte
	Events [BlocksPerMB][]RunLevel

	// arena is the flat backing store for the Events views. One backing
	// array, per-block offsets realized as full-capacity-clamped slices.
	arena []RunLevel
}

// TokenCount returns the total number of run/level events, the main cost
// driver for the RLSQ coprocessor.
func (t *TokenMB) TokenCount() int {
	n := 0
	for b := range t.Events {
		n += len(t.Events[b])
	}
	return n
}

// DecideMB performs the encoder's mode decision for the macroblock mb at
// pixel position (x, y): motion search against the frame-type-appropriate
// references and the intra/inter choice. ops reports search candidate
// evaluations (the ME coprocessor cost driver).
func DecideMB(mb *MBPixels, ftype FrameType, x, y int, fwdRef, bwdRef *Frame, searchRange int, halfPel bool) (dec MBDecision, ops int) {
	if ftype == FrameI {
		return MBDecision{Mode: PredIntra}, 0
	}
	search := func(ref *Frame) SearchResult {
		res := MotionSearch(mb, ref, x, y, searchRange)
		if halfPel {
			mv, sad, extra := RefineHalfPel(mb, ref, x, y, res.MV, res.SAD)
			res.MV, res.SAD = mv, sad
			res.Ops += extra
		}
		return res
	}
	act := IntraActivity(mb)
	if ftype == FrameP {
		res := search(fwdRef)
		if res.SAD > act {
			return MBDecision{Mode: PredIntra}, res.Ops
		}
		return MBDecision{Mode: PredFwd, FMV: res.MV}, res.Ops
	}
	f := search(fwdRef)
	b := search(bwdRef)
	ops = f.Ops + b.Ops
	best, mode := f.SAD, PredFwd
	if b.SAD < best {
		best, mode = b.SAD, PredBwd
	}
	var bi MBPixels
	pix, ps := predView(&bi, PredBi, fwdRef, bwdRef, x, y, f.MV, b.MV, halfPel)
	if biSAD := sadRows(mb, pix, ps, best); biSAD < best {
		best, mode = biSAD, PredBi
	}
	if best > act {
		return MBDecision{Mode: PredIntra}, ops
	}
	return MBDecision{Mode: mode, FMV: f.MV, BMV: b.MV}, ops
}

// TransformMB is the forward transform-and-quantize path for one
// macroblock's residual blocks (FDCT, then quantScan): the work the DCT
// and RLSQ coprocessors perform in the encode direction. It returns the
// quantized zigzag-ordered blocks, the coded block pattern, and the
// nonzero coefficient count.
func TransformMB(resid *[BlocksPerMB]Block, intra bool, q int) (qzz [BlocksPerMB]Block, cbp byte, nz int) {
	for b := 0; b < BlocksPerMB; b++ {
		var coef Block
		FDCT(&resid[b], &coef)
		if n := quantScan(&coef, &qzz[b], q, intra); n > 0 {
			cbp |= 1 << b
			nz += n
		}
	}
	return qzz, cbp, nz
}

// The coefficient errors of both the token path and the fused parse.
var (
	errRunLevelOverflow = fmt.Errorf("%w: run/level overflow", ErrBitstream)
	errBlockEvents      = fmt.Errorf("%w: more than 64 events in a block", ErrBitstream)
)

// RLSQTokensToCoef is the decode-direction RLSQ kernel for one block:
// run/level expansion, inverse quantization and inverse zigzag scan, in
// one pass that scatters each dequantized level to its row-major place.
// It rejects what RunLengthExpand rejects — events past coefficient 63,
// a zero level, a negative run — and out is unspecified on error.
func RLSQTokensToCoef(events []RunLevel, q int, out *Block) error {
	*out = Block{}
	d := int32(2 * q)
	pos := 0
	for _, e := range events {
		pos += e.Run
		if uint(pos) >= 64 || e.Level == 0 || e.Run < 0 {
			return errRunLevelOverflow
		}
		out[zigzag[pos]] = clamp16(int32(int16(e.Level)) * d)
		pos++
	}
	return nil
}

// RLSQDecodeMB applies RLSQTokensToCoef to every coded block of a
// macroblock; uncoded blocks come out zero. out is unspecified on error.
func RLSQDecodeMB(tok *TokenMB, q int, out *[BlocksPerMB]Block) error {
	for b := 0; b < BlocksPerMB; b++ {
		if tok.CBP&(1<<b) == 0 {
			out[b] = Block{}
			continue
		}
		if err := RLSQTokensToCoef(tok.Events[b], q, &out[b]); err != nil {
			return err
		}
	}
	return nil
}

// RLSQEncodeBlockInto is the encode-direction RLSQ kernel for one block:
// zigzag scan and quantization (quantScan) producing run/level events
// published as block b of the caller-owned token (zero-alloc on token
// reuse). It also returns the quantized zigzag block, which feeds the
// encoder's local reconstruction path.
func RLSQEncodeBlockInto(coef *Block, intra bool, q int, tok *TokenMB, b int) (qzz Block) {
	quantScan(coef, &qzz, q, intra)
	tok.SetBlockRunLength(b, &qzz)
	return qzz
}

// IDCTMB applies the inverse DCT to each block of a macroblock. Passing
// cbp lets the DCT coprocessor skip (and not charge cycles for) uncoded
// blocks, which stay zero.
func IDCTMB(coef *[BlocksPerMB]Block, cbp byte, out *[BlocksPerMB]Block) {
	for b := 0; b < BlocksPerMB; b++ {
		if cbp&(1<<b) == 0 {
			out[b] = Block{}
			continue
		}
		IDCT(&coef[b], &out[b])
	}
}

// IsSkipMB implements the P-frame skip rule: forward prediction at zero
// motion with no coded residual.
func IsSkipMB(ftype FrameType, dec MBDecision, cbp byte) bool {
	return ftype == FrameP && dec.Mode == PredFwd && dec.FMV == (MV{}) && cbp == 0
}

// EncodeMBSyntax writes one macroblock's syntax: mode/skip bits, motion
// vector differences against mvp, the coded block pattern, and the
// run/level VLCs. A dec.Mode of PredSkip emits a P-frame skip macroblock
// (qzz is then ignored). The predictor is updated in place.
func EncodeMBSyntax(w *BitWriter, ftype FrameType, dec MBDecision, mvp *MVPredictor, cbp byte, qzz *[BlocksPerMB]Block) {
	if dec.Mode == PredSkip {
		if ftype != FrameP {
			panic("media: skip macroblock outside P frame")
		}
		w.WriteBit(1)
		mvp.Update(PredSkip, MV{}, MV{})
		return
	}
	switch ftype {
	case FrameI:
		if dec.Mode != PredIntra {
			panic("media: non-intra macroblock in I frame")
		}
	case FrameP:
		w.WriteBit(0) // not skipped
		if dec.Mode == PredIntra {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
			w.WriteSE(int32(dec.FMV.X - mvp.Fwd.X))
			w.WriteSE(int32(dec.FMV.Y - mvp.Fwd.Y))
		}
	case FrameB:
		w.WriteBits(uint32(bModeCode(dec.Mode)), 2)
		if dec.Mode == PredFwd || dec.Mode == PredBi {
			w.WriteSE(int32(dec.FMV.X - mvp.Fwd.X))
			w.WriteSE(int32(dec.FMV.Y - mvp.Fwd.Y))
		}
		if dec.Mode == PredBwd || dec.Mode == PredBi {
			w.WriteSE(int32(dec.BMV.X - mvp.Bwd.X))
			w.WriteSE(int32(dec.BMV.Y - mvp.Bwd.Y))
		}
	}
	mvp.Update(dec.Mode, dec.FMV, dec.BMV)
	w.WriteBits(uint32(cbp), 4)
	for b := 0; b < BlocksPerMB; b++ {
		if cbp&(1<<b) == 0 {
			continue
		}
		// Emit the run/level VLCs directly from the zigzag scan instead
		// of materializing an intermediate []RunLevel: bit-identical to
		// encoding RunLength(&qzz[b]), without the allocation.
		run := 0
		for _, c := range &qzz[b] {
			if c == 0 {
				run++
				continue
			}
			EncodeRunLevel(w, RunLevel{Run: run, Level: int32(c)})
			run = 0
		}
		EncodeEOB(w)
	}
}

// ParseMBSyntaxInto reads one macroblock's syntax (the VLD kernel) into
// a caller-owned token: the recovered coding decision (with absolute
// motion vectors) and the coefficient tokens. Skipped macroblocks return
// Mode PredSkip with an empty token. The predictor is updated in place.
// tok is Reset first; reusing one token across macroblocks makes the
// entropy-decode path allocation-free (see the arena ownership rules in
// tokens.go).
func ParseMBSyntaxInto(r *BitReader, ftype FrameType, mvp *MVPredictor, tok *TokenMB) (MBDecision, error) {
	tok.Reset()
	dec, cbp := parseMBHeader(r, ftype, mvp)
	tok.CBP = cbp
	for b := 0; b < BlocksPerMB; b++ {
		if cbp&(1<<b) == 0 {
			continue
		}
		if err := parseBlockEventsInto(r, tok, b); err != nil {
			return dec, err
		}
	}
	return dec, r.Err()
}

// parseMBHeader reads a macroblock's syntax up to its coefficients: the
// skip bit, the mode, the motion vectors (deltas against mvp, which it
// updates) and the coded block pattern, which a skip (PredSkip) lacks.
func parseMBHeader(r *BitReader, ftype FrameType, mvp *MVPredictor) (MBDecision, byte) {
	dec := MBDecision{Mode: PredIntra}
	switch ftype {
	case FrameI:
		// always intra
	case FrameP:
		if r.ReadBit() == 1 {
			mvp.Update(PredSkip, MV{}, MV{})
			return MBDecision{Mode: PredSkip}, 0
		}
		if r.ReadBit() == 1 {
			dec.Mode = PredIntra
		} else {
			dec.Mode = PredFwd
			dec.FMV.X = mvp.Fwd.X + int16(r.ReadSE())
			dec.FMV.Y = mvp.Fwd.Y + int16(r.ReadSE())
		}
	case FrameB:
		dec.Mode = bModeFromCode(r.ReadBits(2))
		if dec.Mode == PredFwd || dec.Mode == PredBi {
			dec.FMV.X = mvp.Fwd.X + int16(r.ReadSE())
			dec.FMV.Y = mvp.Fwd.Y + int16(r.ReadSE())
		}
		if dec.Mode == PredBwd || dec.Mode == PredBi {
			dec.BMV.X = mvp.Bwd.X + int16(r.ReadSE())
			dec.BMV.Y = mvp.Bwd.Y + int16(r.ReadSE())
		}
	}
	mvp.Update(dec.Mode, dec.FMV, dec.BMV)
	return dec, byte(r.ReadBits(4))
}

// RefChain tracks the decoder's (or encoder's) last two reference frames
// and selects the prediction references per frame type: P frames predict
// from the newest reference, B frames forward from the older and backward
// from the newer.
type RefChain struct {
	A, B *Frame // A older, B newer
}

// Refs returns the forward and backward reference for a frame type.
func (rc *RefChain) Refs(ftype FrameType) (fwd, bwd *Frame) {
	if ftype == FrameB {
		return rc.A, rc.B
	}
	return rc.B, nil
}

// Advance records a newly reconstructed frame as the newest reference if
// it is a reference frame (I or P); B frames do not become references.
func (rc *RefChain) Advance(recon *Frame, ftype FrameType) {
	if ftype != FrameB {
		rc.A, rc.B = rc.B, recon
	}
}
