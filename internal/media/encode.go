package media

import (
	"fmt"
	"runtime"

	"eclipse/internal/par"
)

// EncodeWorkers bounds the number of macroblock rows the encoder's
// analysis pass (mode decision, motion search, transform, local
// reconstruction) processes concurrently. It defaults to
// runtime.NumCPU(); set it to 1 to force sequential encoding. The coded
// bitstream is bit-identical for every worker count: per-macroblock
// analysis within a frame depends only on the previous frames'
// reconstructions, and the serially-dependent entropy pass (bit writer
// plus motion-vector predictor) always runs afterwards in raster order.
// It must not be changed while an encode is running.
var EncodeWorkers = runtime.NumCPU()

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
	cfg     CodecConfig
	seq     SeqHeader
	w       *BitWriter
	refs    RefChain
	stats   EncodeStats
	rows    []encRow // per-row analysis state, reused across frames
	workers int      // analysis fan-out override; <= 0 → EncodeWorkers
}

// mbEnc is one macroblock's analysis-pass output, buffered between the
// parallel analysis phase and the serial entropy phase.
type mbEnc struct {
	dec   MBDecision
	cbp   byte
	skip  bool
	intra bool
	qzz   [BlocksPerMB]Block
	ops   int // motion-search candidates evaluated
	nz    int // nonzero quantized coefficients
}

// encRow is the per-macroblock-row working set of the analysis phase.
// Each row is processed by exactly one worker, so the row's token arena
// and result slots need no synchronization.
type encRow struct {
	mbs []mbEnc
	tok TokenMB // event arena for the local reconstruction
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
// the reference chain when the frame is a reference.
//
// Encoding is split into two phases. The analysis phase (mode decision,
// motion search, transform, quantization, local reconstruction) has no
// dependence between macroblocks of the same frame — it reads only the
// input frame and the previous frames' reconstructions — so it fans the
// macroblock rows out over the EncodeWorkers pool, each row writing a
// disjoint stripe of the reconstruction and its own result slots. The
// entropy phase (bit writer, motion-vector predictor) is serially
// dependent and replays the buffered decisions in raster order, so the
// bitstream is bit-identical for every worker count.
func (e *Encoder) encodeFrame(cur *Frame, ftype FrameType, tref int) *Frame {
	startBits := e.w.BitLen()
	fs := FrameStats{Type: ftype, TRef: tref}
	WriteFrameHdr(e.w, FrameHdr{Type: ftype, TRef: uint16(tref)})
	recon := NewFrame(cur.W, cur.H)

	if e.rows == nil {
		e.rows = make([]encRow, e.seq.MBRows)
		for i := range e.rows {
			e.rows[i].mbs = make([]mbEnc, e.seq.MBCols)
		}
	}

	// Phase 1: parallel per-row analysis.
	workers := e.workers
	if workers <= 0 {
		workers = EncodeWorkers
	}
	fwdRef, bwdRef := e.refs.Refs(ftype)
	if err := par.Run(e.seq.MBRows, workers, func(mby int) error {
		e.analyzeRow(cur, recon, ftype, mby, fwdRef, bwdRef)
		return nil
	}); err != nil {
		panic(err) // analyzeRow never fails
	}

	// Phase 2: serial entropy coding over the buffered decisions.
	var mvp MVPredictor
	for mby := 0; mby < e.seq.MBRows; mby++ {
		mvp.RowStart()
		row := e.rows[mby].mbs
		for mbx := range row {
			r := &row[mbx]
			fs.SearchOps += r.ops
			fs.Nonzero += r.nz
			if r.skip {
				fs.SkipMBs++
			}
			if r.intra {
				fs.IntraMBs++
			}
			EncodeMBSyntax(e.w, ftype, r.dec, &mvp, r.cbp, &r.qzz)
		}
	}
	fs.Bits = e.w.BitLen() - startBits
	e.stats.Frames = append(e.stats.Frames, fs)
	e.refs.Advance(recon, ftype)
	return recon
}

// analyzeRow runs the analysis phase for one macroblock row: decisions
// and quantized coefficients go to the row's result slots, pixel
// reconstructions to the row's stripe of recon.
func (e *Encoder) analyzeRow(cur, recon *Frame, ftype FrameType, mby int, fwdRef, bwdRef *Frame) {
	row := &e.rows[mby]
	for mbx := range row.mbs {
		r := &row.mbs[mbx]
		x, y := mbx*MBSize, mby*MBSize
		var mb MBPixels
		cur.GetMB(mbx, mby, &mb)

		dec, ops := DecideMB(&mb, ftype, x, y, fwdRef, bwdRef, e.cfg.SearchRange, e.cfg.HalfPel)
		r.ops = ops

		var predPix MBPixels
		PredictHP(&predPix, dec.Mode, fwdRef, bwdRef, x, y, dec.FMV, dec.BMV, e.cfg.HalfPel)
		var resid [BlocksPerMB]Block
		Residual(&mb, &predPix, &resid)
		qzz, cbp, nz := TransformMB(&resid, dec.Mode == PredIntra, e.cfg.Q)
		r.nz = nz

		r.skip = false
		if IsSkipMB(ftype, dec, cbp) {
			dec = MBDecision{Mode: PredSkip}
			r.skip = true
			// Skip reconstruction is the forward reference at zero motion.
			Predict(&predPix, PredSkip, fwdRef, nil, x, y, MV{}, MV{})
		}
		r.intra = dec.Mode == PredIntra
		r.dec, r.cbp, r.qzz = dec, cbp, qzz

		// Local reconstruction via the decoder's inverse path.
		var coef, deq [BlocksPerMB]Block
		tok := &row.tok
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
	}
}
