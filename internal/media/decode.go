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
func (r *DecodeResult) DisplayFrames() []*Frame {
	return r.DisplayFramesInto(make([]*Frame, 0, len(r.Coded)))
}

// DisplayFramesInto fills dst with the decoded frames in display order,
// reusing dst's backing storage when its capacity suffices (the serving
// path calls this once per response with a recycled slice, so steady
// state allocates nothing). It returns the filled slice, which aliases
// dst when no growth was needed.
func (r *DecodeResult) DisplayFramesInto(dst []*Frame) []*Frame {
	n := len(r.Coded)
	if cap(dst) < n {
		dst = make([]*Frame, n)
	} else {
		dst = dst[:n]
		for i := range dst {
			dst[i] = nil
		}
	}
	for _, df := range r.Coded {
		if int(df.Hdr.TRef) >= n {
			continue // malformed tref; keep what fits
		}
		dst[df.Hdr.TRef] = df.Frame
	}
	return dst
}

// Decode is the reference decoder, composed from the same stage kernels
// (ParseMBSyntax, RLSQDecodeMB, IDCTMB, Predict, Reconstruct) that the
// Eclipse coprocessor models run, so its output is the ground truth for
// the six-task Kahn decode and its cycle-accurate mapping. It is one
// serial loop on the calling goroutine: parallelism comes from decoding
// many streams at once, as the paper's coprocessors multi-task many
// streams, not from splitting one.
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
// and delivery hooks. See Decode for the semantics; output and errors
// are identical for every option combination.
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
	res := &DecodeResult{Seq: seq}
	streaming := opts.OnDisplayFrame != nil
	var sink *streamSink
	if streaming {
		sink = newStreamSink(opts, lo, hi)
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
	var refDi [2]int // display indices shadowing refs.A, refs.B
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
		if hdr.Type != FrameB {
			if refs.A != nil {
				sink.chainDrop(refDi[0])
			}
			refDi[0], refDi[1] = refDi[1], int(hdr.TRef)
		}
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

// decodeFrameBody decodes the macroblock layer of one frame (the serial
// path). newFrame supplies the reconstruction frame; recycle, when
// non-nil, reclaims it on the error path.
func decodeFrameBody(r *BitReader, seq *SeqHeader, hdr FrameHdr, refs *RefChain, newFrame func(w, h int) *Frame, recycle func(*Frame)) (*Frame, error) {
	if hdr.Type != FrameI && refs.B == nil {
		return nil, fmt.Errorf("%w: %v frame before first reference", ErrBitstream, hdr.Type)
	}
	if hdr.Type == FrameB && refs.A == nil {
		return nil, fmt.Errorf("%w: B frame with a single reference", ErrBitstream)
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
		tok         TokenMB // reused across macroblocks (arena)
		coef, resid [BlocksPerMB]Block
		pred, out   MBPixels
	)
	for mby := 0; mby < seq.MBRows; mby++ {
		mvp.RowStart()
		for mbx := 0; mbx < seq.MBCols; mbx++ {
			dec, err := ParseMBSyntaxInto(r, hdr.Type, &mvp, &tok)
			if err != nil {
				return fail(fmt.Errorf("mb (%d,%d): %w", mbx, mby, err))
			}
			if err := RLSQDecodeMB(&tok, seq.Q, &coef); err != nil {
				return fail(fmt.Errorf("mb (%d,%d): %w", mbx, mby, err))
			}
			IDCTMB(&coef, tok.CBP, &resid)
			x, y := mbx*MBSize, mby*MBSize
			PredictHP(&pred, dec.Mode, fwdRef, bwdRef, x, y, dec.FMV, dec.BMV, seq.HalfPel)
			Reconstruct(&out, &pred, &resid)
			frame.SetMB(mbx, mby, &out)
		}
	}
	return frame, r.Err()
}

// parseBlockEventsInto reads one block's run/level events up to EOB into
// the token's arena, publishing them as block b's events.
func parseBlockEventsInto(r *BitReader, tok *TokenMB, b int) error {
	tok.ensureArena()
	start := len(tok.arena)
	for {
		rl, eob, _ := DecodeRunLevel(r)
		if err := r.Err(); err != nil {
			return err
		}
		if eob {
			tok.sealBlock(b, start)
			return nil
		}
		tok.arena = append(tok.arena, rl)
		if len(tok.arena)-start > maxBlockEvents {
			return fmt.Errorf("%w: more than 64 events in a block", ErrBitstream)
		}
	}
}
