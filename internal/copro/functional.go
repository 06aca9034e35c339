package copro

import (
	"errors"
	"fmt"
	"io"

	"eclipse/internal/kpn"
	"eclipse/internal/media"
)

// Functional (untimed) software implementations of the decode-pipeline
// Kahn functions, for the kpn executor. These are the "software tasks on
// the media processor" variant of the same functions the coprocessors
// implement: different control structure (blocking Kahn reads instead of
// processing steps with GetSpace/PutSpace), same stream contents — which
// is exactly what Kahn determinism promises and what the equivalence
// tests verify.

// FunctionalSink collects the decoded frames of a functional run.
type FunctionalSink struct {
	Seq    media.SeqHeader
	Frames []*media.Frame
}

// FunctionalDecodeFuncs returns the task functions for a decode graph
// built by the root package's DecodeGraph, keyed by Kahn function name.
func FunctionalDecodeFuncs(stream []byte, seq media.SeqHeader, out *FunctionalSink) map[string]kpn.TaskFunc {
	out.Seq = seq
	out.Frames = make([]*media.Frame, seq.Frames)
	return map[string]kpn.TaskFunc{
		"bitsrc": func(c *kpn.TaskCtx) error {
			const chunk = 64
			for off := 0; off < len(stream); off += chunk {
				end := off + chunk
				if end > len(stream) {
					end = len(stream)
				}
				if err := c.Write("bits", stream[off:end]); err != nil {
					return err
				}
			}
			return nil
		},
		"vld":  functionalVLD,
		"rlsq": functionalRLSQ(seq),
		"idct": functionalIDCT,
		"mc":   functionalMC(seq),
		"sink": functionalSink(seq, out),
	}
}

func functionalVLD(c *kpn.TaskCtx) error {
	parser := media.NewStreamVLD()
	buf := make([]byte, 64)
	var tokBuf, hdrBuf []byte // reused record staging (the FIFO copies)
	for {
		ev, err := parser.Next()
		if errors.Is(err, media.ErrNeedData) {
			n, rerr := c.ReadSome("bits", buf)
			if rerr == io.EOF {
				return fmt.Errorf("vld: bitstream ended at %s", parser.Progress())
			}
			if rerr != nil {
				return rerr
			}
			parser.Extend(buf[:n])
			parser.Compact()
			continue
		}
		if err != nil {
			return err
		}
		switch ev.Kind {
		case media.EventSeq:
			// configuration only
		case media.EventFrame:
			tokBuf = media.AppendFrameRec(tokBuf[:0], media.FrameRecTok, ev.Frame)
			hdrBuf = media.AppendFrameRec(hdrBuf[:0], media.FrameRecHdr, ev.Frame)
			if err := c.Write("tok", tokBuf); err != nil {
				return err
			}
			if err := c.Write("hdr", hdrBuf); err != nil {
				return err
			}
		case media.EventMB:
			tokBuf = media.AppendTokenMB(tokBuf[:0], &ev.Tok)
			hdrBuf = media.AppendMBHeader(hdrBuf[:0], ev.MB)
			if err := c.Write("tok", tokBuf); err != nil {
				return err
			}
			if err := c.Write("hdr", hdrBuf); err != nil {
				return err
			}
		case media.EventEnd:
			return nil
		}
	}
}

func functionalRLSQ(seq media.SeqHeader) kpn.TaskFunc {
	return func(c *kpn.TaskCtx) error {
		var (
			frameB [media.FrameRecSize]byte
			rec    []byte
			tok    media.TokenMB // reused (event arena)
			outBuf []byte
			coef   [media.BlocksPerMB]media.Block
		)
		for f := 0; f < seq.Frames; f++ {
			if err := c.Read("tok", frameB[:]); err != nil {
				return err
			}
			if _, err := media.ParseFrameRec(frameB[:], media.FrameRecTok); err != nil {
				return err
			}
			for mb := 0; mb < seq.MBCount(); mb++ {
				var lenBuf [media.TokenLenSize]byte
				if err := c.Read("tok", lenBuf[:]); err != nil {
					return err
				}
				body := int(lenBuf[0]) | int(lenBuf[1])<<8
				rec = growBytes(rec, media.TokenLenSize+body)
				copy(rec, lenBuf[:])
				if err := c.Read("tok", rec[media.TokenLenSize:]); err != nil {
					return err
				}
				if _, err := media.ParseTokenMBInto(rec, &tok); err != nil {
					return err
				}
				if err := media.RLSQDecodeMB(&tok, seq.Q, &coef); err != nil {
					return err
				}
				outBuf = media.AppendMBBlocks(outBuf[:0], &coef)
				if err := c.Write("coef", outBuf); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func functionalIDCT(c *kpn.TaskCtx) error {
	buf := make([]byte, media.BlockBytes)
	var outBuf []byte
	for {
		err := c.Read("coef", buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var in, out media.Block
		if err := media.ParseBlock(buf, &in); err != nil {
			return err
		}
		media.IDCT(&in, &out)
		outBuf = media.AppendBlock(outBuf[:0], &out)
		if err := c.Write("resid", outBuf); err != nil {
			return err
		}
	}
}

func functionalMC(seq media.SeqHeader) kpn.TaskFunc {
	return func(c *kpn.TaskCtx) error {
		var refs media.RefChain
		var (
			frameB [media.FrameRecSize]byte
			hbuf   [media.MBHeaderSize]byte
			rbuf   [media.MBCoefBytes]byte
		)
		pool := media.NewFramePool()
		for f := 0; f < seq.Frames; f++ {
			if err := c.Read("hdr", frameB[:]); err != nil {
				return err
			}
			hdr, err := media.ParseFrameRec(frameB[:], media.FrameRecHdr)
			if err != nil {
				return err
			}
			// Frames cycle through a free list: the MC only ever needs the
			// current frame plus the two references, so older frames are
			// recycled instead of garbage-collected (per-GOP temporaries).
			frame := pool.Get(seq.W(), seq.H())
			fwd, bwd := refs.Refs(hdr.Type)
			for mb := 0; mb < seq.MBCount(); mb++ {
				if err := c.Read("hdr", hbuf[:]); err != nil {
					return err
				}
				dec, err := media.ParseMBHeader(hbuf[:])
				if err != nil {
					return err
				}
				if err := c.Read("resid", rbuf[:]); err != nil {
					return err
				}
				var resid [media.BlocksPerMB]media.Block
				if err := media.ParseMBBlocks(rbuf[:], &resid); err != nil {
					return err
				}
				mbx, mby := mb%seq.MBCols, mb/seq.MBCols
				x, y := mbx*media.MBSize, mby*media.MBSize
				var pred, pix media.MBPixels
				media.PredictHP(&pred, dec.Mode, fwd, bwd, x, y, dec.FMV, dec.BMV, seq.HalfPel)
				media.Reconstruct(&pix, &pred, &resid)
				frame.SetMB(mbx, mby, &pix)
				if err := c.Write("pix", pix[:]); err != nil {
					return err
				}
			}
			if hdr.Type == media.FrameB {
				pool.Put(frame) // B frames never become references
			} else {
				dropped := refs.A // evicted by Advance below
				refs.Advance(frame, hdr.Type)
				pool.Put(dropped)
			}
		}
		return nil
	}
}

func functionalSink(seq media.SeqHeader, out *FunctionalSink) kpn.TaskFunc {
	return func(c *kpn.TaskCtx) error {
		for f := 0; f < seq.Frames; f++ {
			rec := make([]byte, media.FrameRecSize)
			if err := c.Read("hdr", rec); err != nil {
				return err
			}
			hdr, err := media.ParseFrameRec(rec, media.FrameRecHdr)
			if err != nil {
				return err
			}
			frame := media.NewFrame(seq.W(), seq.H())
			for mb := 0; mb < seq.MBCount(); mb++ {
				var hbuf [media.MBHeaderSize]byte
				if err := c.Read("hdr", hbuf[:]); err != nil {
					return err
				}
				var pix media.MBPixels
				if err := c.Read("pix", pix[:]); err != nil {
					return err
				}
				frame.SetMB(mb%seq.MBCols, mb/seq.MBCols, &pix)
			}
			if int(hdr.TRef) < len(out.Frames) && out.Frames[hdr.TRef] == nil {
				out.Frames[hdr.TRef] = frame
			}
		}
		return nil
	}
}
