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
	refs  RefChain // reference planes (see encodeFrame)
	pad   int      // border of the reference planes
	stats EncodeStats
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
	e := newEncoder(cfg, len(frames), 0, len(frames), 0)

	types := GOPTypes(len(frames), cfg.GOPN, cfg.GOPM)
	recon := make([]*Frame, len(frames))
	// I and P frames reconstruct into the reference plane they drop, as
	// in a StreamEncoder; B frames share one plane of their own.
	var bPlane *Frame
	for _, di := range CodedOrder(types) {
		plane := e.refs.A
		if types[di] == FrameB {
			if bPlane == nil {
				bPlane = e.newPlane(NewFrame)
			}
			plane = bPlane
		} else if plane == nil {
			plane = e.newPlane(NewFrame)
		}
		e.encodeFrame(frames[di], types[di], di, plane)
		recon[di] = NewFrame(cfg.W, cfg.H)
		for y := 0; y < cfg.H; y++ {
			copy(recon[di].Pix[y*cfg.W:(y+1)*cfg.W], plane.Pix[(y+e.pad)*plane.W+e.pad:])
		}
	}
	return e.w.Bytes(), recon, &e.stats, nil
}

// newEncoder builds an Encoder for display frames [lo, hi) of a
// frames-frame sequence, its writer starting with room for outBytes.
// Shared by the batch Encode (the span [0, frames)) and the push-based
// StreamEncoder so both produce bit-identical streams: the span at
// display 0 writes the sequence header, later spans stay headerless so
// StitchSegments can splice them behind it.
func newEncoder(cfg CodecConfig, frames, lo, hi, outBytes int) *Encoder {
	e := &Encoder{cfg: cfg, w: &BitWriter{buf: make([]byte, 0, outBytes)}, pad: refPad(cfg.SearchRange), seq: SeqHeader{
		MBCols: cfg.W / MBSize, MBRows: cfg.H / MBSize,
		Q: cfg.Q, GOPN: cfg.GOPN, GOPM: cfg.GOPM, Frames: frames,
		HalfPel: cfg.HalfPel,
	}}
	e.stats.Frames = make([]FrameStats, 0, hi-lo)
	if lo == 0 {
		WriteSeqHeader(e.w, &e.seq)
	}
	return e
}

// refPad is the border of the encoder's reference planes: the search
// radius r rounded up to a multiple of MBSize, so a plane's dimensions
// stay multiples of MBSize and every search window of radius r lies
// inside it.
func refPad(r int) int { return (r + MBSize - 1) / MBSize * MBSize }

// newPlane allocates a reference plane with alloc.
func (e *Encoder) newPlane(alloc func(w, h int) *Frame) *Frame {
	return alloc(e.cfg.W+2*e.pad, e.cfg.H+2*e.pad)
}

// extendEdges fills the p-pixel border of a reference plane from the
// picture inside it: each border pixel repeats the picture pixel nearest
// to it, so f.At(x+p, y+p) is the picture's At(x, y) at every x and y.
func extendEdges(f *Frame, p int) {
	w := f.W
	for y := p; y < f.H-p; y++ {
		row := f.Pix[y*w : (y+1)*w]
		l, r := row[p], row[w-p-1]
		for i := 0; i < p; i++ {
			row[i], row[w-1-i] = l, r
		}
	}
	top, bot := f.Pix[p*w:(p+1)*w], f.Pix[(f.H-p-1)*w:(f.H-p)*w]
	for y := 0; y < p; y++ {
		copy(f.Pix[y*w:(y+1)*w], top)
		copy(f.Pix[(f.H-1-y)*w:(f.H-y)*w], bot)
	}
}

// encodeFrame codes one frame, reconstructs it into recon unless recon
// is nil (which only a B frame may pass), and advances the reference
// chain. It is one raster pass: each macroblock is analysed (mode
// decision, motion search, transform, quantization, local
// reconstruction) and its syntax written straight after, with the
// motion-vector predictor restarting per row.
//
// recon and the references are reference planes: (W+2p)×(H+2p) frames,
// p = e.pad, holding the picture at (p, p) and its replicated edges
// around it, filled once per I or P frame by extendEdges. Clamping to a
// plane lands on the pixel that clamping to the picture does, so the
// search and the prediction read the plane at (x+p, y+p) and give the
// picture's results for every vector; with r ≤ p every search window
// lies inside the plane and is read in place.
func (e *Encoder) encodeFrame(cur *Frame, ftype FrameType, tref int, recon *Frame) {
	startBits := e.w.BitLen()
	fs := FrameStats{Type: ftype, TRef: tref}
	WriteFrameHdr(e.w, FrameHdr{Type: ftype, TRef: uint16(tref)})
	fwdRef, bwdRef := e.refs.Refs(ftype)
	var mvp MVPredictor
	for mby := 0; mby < e.seq.MBRows; mby++ {
		mvp.RowStart()
		for mbx := 0; mbx < e.seq.MBCols; mbx++ {
			x, y := mbx*MBSize+e.pad, mby*MBSize+e.pad // in the planes
			var mb MBPixels
			cur.GetMB(mbx, mby, &mb)

			dec, ops := DecideMB(&mb, ftype, x, y, fwdRef, bwdRef, e.cfg.SearchRange, e.cfg.HalfPel)
			fs.SearchOps += ops

			var scratch MBPixels
			pix, ps := predView(&scratch, dec.Mode, fwdRef, bwdRef, x, y, dec.FMV, dec.BMV, e.cfg.HalfPel)
			var resid [BlocksPerMB]Block
			residual(&mb, pix, ps, &resid)
			qzz, cbp, nz := TransformMB(&resid, dec.Mode == PredIntra, e.cfg.Q)
			fs.Nonzero += nz

			if IsSkipMB(ftype, dec, cbp) {
				// The prediction is already the skip reconstruction, the
				// forward reference at zero motion, and cbp is 0.
				dec = MBDecision{Mode: PredSkip}
				fs.SkipMBs++
			}
			if dec.Mode == PredIntra {
				fs.IntraMBs++
			}

			if recon != nil {
				// Local reconstruction straight from the quantized
				// levels, bit-identical to the decoder's inverse path.
				var coef, deq [BlocksPerMB]Block
				for b := 0; b < BlocksPerMB; b++ {
					if cbp&(1<<b) != 0 {
						DequantScan(&qzz[b], &coef[b], e.cfg.Q)
					}
				}
				IDCTMB(&coef, cbp, &deq)
				reconstruct(recon.Pix[y*recon.W+x:], recon.W, pix, ps, &deq)
			}

			EncodeMBSyntax(e.w, ftype, dec, &mvp, cbp, &qzz)
		}
	}
	if ftype != FrameB {
		extendEdges(recon, e.pad)
	}
	fs.Bits = e.w.BitLen() - startBits
	e.stats.Frames = append(e.stats.Frames, fs)
	e.refs.Advance(recon, ftype)
}
