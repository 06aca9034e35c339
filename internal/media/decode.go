package media

import "fmt"

// DecodedFrame is one frame out of the decoder, in coded order.
type DecodedFrame struct {
	Hdr   FrameHdr
	Frame *Frame
}

// DecodeResult is the full output of a reference decode.
type DecodeResult struct {
	Seq   SeqHeader
	Coded []DecodedFrame // coded order, as they appear in the stream
}

// DisplayFrames returns the decoded frames sorted into display order.
// A frame whose display index is out of range is left out, so a
// malformed stream can leave nil entries.
func (r *DecodeResult) DisplayFrames() []*Frame {
	dst := make([]*Frame, len(r.Coded))
	for _, df := range r.Coded {
		if int(df.Hdr.TRef) < len(dst) {
			dst[df.Hdr.TRef] = df.Frame
		}
	}
	return dst
}

// Decode is the reference decoder, built from the stage kernels the
// Eclipse coprocessor models run (IDCTMB, predView, reconstruct; their
// VLD and RLSQ in one pass, parseMBCoef, held to theirs by a contract
// test), so its output is the ground truth for the six-task Kahn decode
// and its cycle-accurate mapping. It is one serial loop on the calling
// goroutine: parallelism comes from decoding many streams at once, as
// the paper's coprocessors multi-task many streams, not from splitting one.
func Decode(stream []byte) (*DecodeResult, error) {
	return DecodeWithOptions(stream, DecodeOptions{})
}

// DecodeOptions parameterizes DecodeWithOptions. The zero value decodes
// with plain NewFrame allocation. Every hook runs on the calling
// goroutine.
type DecodeOptions struct {
	// Workers is ignored; it exists only for the benchmark rig.
	Workers int
	// NewFrame, when non-nil, supplies reconstruction frames (e.g. from
	// a FramePool). It must return a zeroed w×h frame.
	NewFrame func(w, h int) *Frame
	// Recycle, when non-nil, is called for every frame the decoder
	// created once it is certain the frame will not be returned (error
	// and cancellation paths), so pooled frames are not leaked.
	Recycle func(*Frame)
	// OnFrame, when non-nil, is called before each coded frame's header
	// is parsed. Returning a non-nil error aborts the decode with that
	// error: the serving layer's preemption/cancellation checkpoint.
	OnFrame func(coded int) error
	// OnDisplayFrame, when non-nil, switches the decode into streaming
	// mode: it is called once per frame, in strictly increasing display
	// order, as soon as the frame is decoded AND every earlier display
	// index has been delivered. The frame stays valid at least until
	// Retire is called for it; the decoder may keep reading it as a
	// motion-compensation reference in the meantime, so the consumer must
	// not mutate or recycle it before its Retire. A non-nil return aborts
	// the decode with that error. In streaming mode the returned
	// DecodeResult carries frame headers only (Coded[i].Frame is nil) —
	// the decoder retains no frames, which is what bounds its memory to
	// the reorder window. Display indices are validated to form a
	// bijection with [0, Frames): streams that would leave display holes
	// fail with ErrBitstream at the frame that breaks it.
	OnDisplayFrame func(di int, f *Frame) error
	// Retire, in streaming mode, is called exactly once per delivered
	// frame when the decoder's own interest in it ends (its reference
	// window passed, the decode finished, or the decode aborted). After
	// a frame's Retire the consumer is its sole owner. Frames created
	// but never delivered (abort paths) go to Recycle instead, exactly
	// once.
	Retire func(f *Frame)
}

// DecodeWithOptions decodes with explicit frame-allocation, checkpoint
// and delivery hooks. See Decode for the semantics. Output and errors
// are the same for every option combination but one: display indices
// that are not a bijection with [0, Frames). A batch decode accepts a
// repeated or out-of-range display index and leaves a nil slot in
// DisplayFrames; a streaming decode (OnDisplayFrame set) rejects the
// frame with ErrBitstream, since its consumer has already acted on
// earlier frames. TestHTTPDecodeMalformed's duplicate-display-index row
// pins both.
func DecodeWithOptions(stream []byte, opts DecodeOptions) (*DecodeResult, error) {
	r := NewBitReader(stream)
	seq, err := ParseSeqHeader(r)
	if err != nil {
		return nil, err
	}
	return decodeSpan(r, seq, 0, seq.Frames, &opts)
}

// decodeSpan is the decoder: the loop over coded frames [lo, hi) with r
// positioned at frame lo's header. Whole-stream decodes pass
// [0, Frames); segment decodes pass a closed sub-range, within which the
// reference chain is self-contained (the range starts with an I frame
// and no frame references outside it — IndexGOPs' closed-cut
// guarantee), so the loop body is identical.
func decodeSpan(r *BitReader, seq SeqHeader, lo, hi int, opts *DecodeOptions) (*DecodeResult, error) {
	newFrame := opts.NewFrame
	if newFrame == nil {
		newFrame = NewFrame
	}
	res := &DecodeResult{Seq: seq, Coded: make([]DecodedFrame, 0, min(hi-lo, seq.MaxFrames(len(r.buf))))}
	streaming := opts.OnDisplayFrame != nil
	var sink streamSink
	if streaming {
		sink = *newStreamSink(opts, lo, hi) // inlined: the sink lives on the stack
	}
	fail := func(err error) (*DecodeResult, error) {
		if streaming {
			sink.cleanup()
		} else if opts.Recycle != nil {
			for _, df := range res.Coded {
				opts.Recycle(df.Frame)
			}
		}
		return nil, err
	}
	var refs RefChain
	for fi := lo; fi < hi; fi++ {
		if opts.OnFrame != nil {
			if err := opts.OnFrame(fi); err != nil {
				return fail(err)
			}
		}
		hdr, err := ParseFrameHdr(r)
		if err != nil {
			return fail(fmt.Errorf("frame %d: %w", fi, err))
		}
		frame, err := decodeFrameBody(r, &seq, hdr, &refs, newFrame, opts.Recycle)
		if err != nil {
			return fail(fmt.Errorf("frame %d: %w", fi, err))
		}
		if !streaming {
			res.Coded = append(res.Coded, DecodedFrame{Hdr: hdr, Frame: frame})
			refs.Advance(frame, hdr.Type)
			continue
		}
		if err := sink.frameDecoded(int(hdr.TRef), frame, hdr.Type != FrameB); err != nil {
			if opts.Recycle != nil {
				opts.Recycle(frame) // never entered the sink's custody
			}
			return fail(fmt.Errorf("frame %d: %w", fi, err))
		}
		res.Coded = append(res.Coded, DecodedFrame{Hdr: hdr})
		refs.Advance(frame, hdr.Type)
		if err := sink.deliver(); err != nil {
			return fail(err)
		}
	}
	if streaming {
		// Every frame was delivered (the display indices are a bijection),
		// so this retires the two references still in the chain.
		sink.cleanup()
	}
	return res, nil
}

// minMBBits is the fewest bits a macroblock codes in (parseMBHeader): an
// I's 4-bit cbp, a P's skip flag, a B's 2-bit mode and 4-bit cbp. Every
// other element only adds bits, so MBCount times it bounds a frame body
// from below, and frameFits fails a frame the rest of the stream cannot
// hold, as the read past the end it would hit, before it is allocated.
// IndexGOPs makes the same check at the same point.
var minMBBits = [...]int{FrameI: 4, FrameP: 1, FrameB: 6}

// MaxFrames bounds the frames a stream of n bytes can hold under h by the
// rule frameFits applies: each is a frame header and at least MBCount ×
// minMBBits bits of body. So a forged frame count or geometry sizes
// nothing past what the stream could carry.
func (h *SeqHeader) MaxFrames(n int) int {
	return 8 * n / (frameHdrBits + h.MBCount()*min(minMBBits[FrameI], minMBBits[FrameP], minMBBits[FrameB]))
}

func frameFits(r *BitReader, seq *SeqHeader, t FrameType) error {
	if left, need := 8*len(r.buf)-r.pos, seq.MBCount()*minMBBits[t]; left < need {
		return fmt.Errorf("%w: read past end: %d macroblocks need at least %d bits, %d left", ErrBitstream, seq.MBCount(), need, left)
	}
	return nil
}

// decodeFrameBody decodes the macroblock layer of one frame. newFrame
// supplies the reconstruction frame, drawn only once frameFits holds;
// recycle, when non-nil, reclaims it on the error path.
func decodeFrameBody(r *BitReader, seq *SeqHeader, hdr FrameHdr, refs *RefChain, newFrame func(w, h int) *Frame, recycle func(*Frame)) (*Frame, error) {
	if hdr.Type != FrameI && refs.B == nil {
		return nil, fmt.Errorf("%w: %v frame before first reference", ErrBitstream, hdr.Type)
	}
	if hdr.Type == FrameB && refs.A == nil {
		return nil, fmt.Errorf("%w: B frame with a single reference", ErrBitstream)
	}
	if err := frameFits(r, seq, hdr.Type); err != nil {
		return nil, err
	}
	frame := newFrame(seq.W(), seq.H())
	fail := func(err error) (*Frame, error) {
		if recycle != nil {
			recycle(frame)
		}
		return nil, err
	}
	fwdRef, bwdRef := refs.Refs(hdr.Type)
	var (
		mvp         MVPredictor
		coef, resid [BlocksPerMB]Block
		pred        MBPixels
	)
	for mby := 0; mby < seq.MBRows; mby++ {
		mvp.RowStart()
		for mbx := 0; mbx < seq.MBCols; mbx++ {
			dec, cbp, err := parseMBCoef(r, hdr.Type, &mvp, seq.Q, &coef)
			if err != nil {
				return fail(fmt.Errorf("mb (%d,%d): %w", mbx, mby, err))
			}
			IDCTMB(&coef, cbp, &resid)
			x, y := mbx*MBSize, mby*MBSize
			pix, ps := predView(&pred, dec.Mode, fwdRef, bwdRef, x, y, dec.FMV, dec.BMV, seq.HalfPel)
			reconstruct(frame.Pix[y*frame.W+x:], frame.W, pix, ps, &resid)
		}
	}
	return frame, r.Err()
}

// parseMBCoef is ParseMBSyntaxInto then RLSQDecodeMB in one pass, with no
// token. Its errors come in their order: a parse error anywhere in the
// macroblock (a truncation, a 65th event) wins over a run/level overflow,
// so the first overflow is held, and later events are read but not
// written, until the last block has parsed.
func parseMBCoef(r *BitReader, ftype FrameType, mvp *MVPredictor, q int, coef *[BlocksPerMB]Block) (MBDecision, byte, error) {
	dec, cbp := parseMBHeader(r, ftype, mvp)
	d := int32(2 * q)
	overflow := false
	for b := range coef {
		coef[b] = Block{}
		for n, pos := 0, 0; cbp&(1<<b) != 0; n, pos = n+1, pos+1 {
			rl, eob, _ := DecodeRunLevel(r)
			if err := r.Err(); err != nil {
				return dec, cbp, err
			}
			if eob {
				break
			}
			if n == maxBlockEvents {
				return dec, cbp, errBlockEvents
			}
			pos += rl.Run
			switch {
			case uint(pos) >= 64 || rl.Level == 0 || rl.Run < 0:
				overflow = true
			case !overflow:
				coef[b][zigzag[pos]] = clamp16(int32(int16(rl.Level)) * d)
			}
		}
	}
	if overflow {
		return dec, cbp, errRunLevelOverflow
	}
	return dec, cbp, r.Err()
}
