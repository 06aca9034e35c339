package media

import "fmt"

// FrameStats summarizes one coded frame, used by tests and by the
// benchmark harness to characterize workload data dependence.
type FrameStats struct {
	Type      FrameType
	TRef      int
	Bits      int // coded size
	Nonzero   int // nonzero quantized coefficients
	IntraMBs  int
	SkipMBs   int
	SearchOps int // motion-search candidate evaluations
}

// EncodeStats summarizes an encode run.
type EncodeStats struct {
	Frames []FrameStats
}

// TotalBits returns the coded sequence size in bits.
func (s *EncodeStats) TotalBits() int {
	n := 0
	for _, f := range s.Frames {
		n += f.Bits
	}
	return n
}

// Encoder compresses frames into the package bitstream format. It keeps
// the reconstruction loop (dequantize → IDCT → motion compensate) so its
// reference frames match the decoder's output bit-exactly. The encoder is
// composed from the same stage kernels (DecideMB, TransformMB,
// EncodeMBSyntax, ...) that the Eclipse coprocessor models execute.
type Encoder struct {
	cfg   CodecConfig
	seq   SeqHeader
	w     *BitWriter
	refs  RefChain
	stats EncodeStats
	tok   TokenMB // event arena for the local reconstruction
}

// Encode compresses frames (display order) and returns the bitstream, the
// reconstructed frames in display order (what a decoder will produce),
// and statistics.
func Encode(cfg CodecConfig, frames []*Frame) ([]byte, []*Frame, *EncodeStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, nil, err
	}
	if len(frames) == 0 || len(frames) > 0xFFFF {
		return nil, nil, nil, fmt.Errorf("media: frame count %d out of range", len(frames))
	}
	for i, f := range frames {
		if f.W != cfg.W || f.H != cfg.H {
			return nil, nil, nil, fmt.Errorf("media: frame %d is %dx%d, want %dx%d", i, f.W, f.H, cfg.W, cfg.H)
		}
	}
	e := newEncoder(cfg, len(frames), true)

	types := GOPTypes(len(frames), cfg.GOPN, cfg.GOPM)
	order := CodedOrder(types)
	recon := make([]*Frame, len(frames))
	for _, di := range order {
		recon[di] = e.encodeFrame(frames[di], types[di], di)
	}
	return e.w.Bytes(), recon, &e.stats, nil
}

// newEncoder builds an Encoder for a declared frame count and, when
// header is set, writes the sequence header. Shared by the batch Encode
// and the push-based StreamEncoder so both produce bit-identical
// streams: the batch encoder and the span at display 0 carry the header,
// later spans stay headerless so StitchSegments can splice them behind
// it.
func newEncoder(cfg CodecConfig, frames int, header bool) *Encoder {
	e := &Encoder{cfg: cfg, w: NewBitWriter(), seq: SeqHeader{
		MBCols: cfg.W / MBSize, MBRows: cfg.H / MBSize,
		Q: cfg.Q, GOPN: cfg.GOPN, GOPM: cfg.GOPM, Frames: frames,
		HalfPel: cfg.HalfPel,
	}}
	if header {
		WriteSeqHeader(e.w, &e.seq)
	}
	return e
}

// encodeFrame codes one frame and returns its reconstruction, updating
// the reference chain when the frame is a reference. It is one raster
// pass: each macroblock is analysed (mode decision, motion search,
// transform, quantization, local reconstruction) and its syntax written
// straight after, with the motion-vector predictor restarting per row.
func (e *Encoder) encodeFrame(cur *Frame, ftype FrameType, tref int) *Frame {
	startBits := e.w.BitLen()
	fs := FrameStats{Type: ftype, TRef: tref}
	WriteFrameHdr(e.w, FrameHdr{Type: ftype, TRef: uint16(tref)})
	recon := NewFrame(cur.W, cur.H)
	fwdRef, bwdRef := e.refs.Refs(ftype)
	var mvp MVPredictor
	for mby := 0; mby < e.seq.MBRows; mby++ {
		mvp.RowStart()
		for mbx := 0; mbx < e.seq.MBCols; mbx++ {
			x, y := mbx*MBSize, mby*MBSize
			var mb MBPixels
			cur.GetMB(mbx, mby, &mb)

			dec, ops := DecideMB(&mb, ftype, x, y, fwdRef, bwdRef, e.cfg.SearchRange, e.cfg.HalfPel)
			fs.SearchOps += ops

			var predPix MBPixels
			PredictHP(&predPix, dec.Mode, fwdRef, bwdRef, x, y, dec.FMV, dec.BMV, e.cfg.HalfPel)
			var resid [BlocksPerMB]Block
			Residual(&mb, &predPix, &resid)
			qzz, cbp, nz := TransformMB(&resid, dec.Mode == PredIntra, e.cfg.Q)
			fs.Nonzero += nz

			if IsSkipMB(ftype, dec, cbp) {
				dec = MBDecision{Mode: PredSkip}
				fs.SkipMBs++
				// Skip reconstruction is the forward reference at zero motion.
				Predict(&predPix, PredSkip, fwdRef, nil, x, y, MV{}, MV{})
			}
			if dec.Mode == PredIntra {
				fs.IntraMBs++
			}

			// Local reconstruction via the decoder's inverse path.
			var coef, deq [BlocksPerMB]Block
			tok := &e.tok
			tok.Reset()
			tok.CBP = cbp
			if dec.Mode == PredSkip {
				tok.CBP = 0
			}
			for b := 0; b < BlocksPerMB; b++ {
				if tok.CBP&(1<<b) != 0 {
					tok.SetBlockRunLength(b, &qzz[b])
				}
			}
			if err := RLSQDecodeMB(tok, e.cfg.Q, &coef); err != nil {
				panic(err) // encoder-produced tokens are always valid
			}
			IDCTMB(&coef, tok.CBP, &deq)
			var out MBPixels
			Reconstruct(&out, &predPix, &deq)
			recon.SetMB(mbx, mby, &out)

			EncodeMBSyntax(e.w, ftype, dec, &mvp, cbp, &qzz)
		}
	}
	fs.Bits = e.w.BitLen() - startBits
	e.stats.Frames = append(e.stats.Frames, fs)
	e.refs.Advance(recon, ftype)
	return recon
}
