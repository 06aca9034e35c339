package eclipse

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"eclipse/internal/copro"
	"eclipse/internal/kpn"
	"eclipse/internal/media"
)

// displayDecoder decodes a stream to its frames in display order.
type displayDecoder func(stream []byte) ([]*media.Frame, error)

func batchDecode(stream []byte) ([]*media.Frame, error) {
	res, err := media.Decode(stream)
	if err != nil {
		return nil, err
	}
	return res.DisplayFrames(), nil
}

func streamingDecode(stream []byte) ([]*media.Frame, error) {
	var frames []*media.Frame
	_, err := media.DecodeWithOptions(stream, media.DecodeOptions{OnDisplayFrame: func(_ int, f *media.Frame) error {
		frames = append(frames, f)
		return nil
	}})
	return frames, err
}

func functionalDecode(stream []byte) ([]*media.Frame, error) {
	return RunFunctionalDecode(stream, DefaultDecodeBuffers())
}

// timedDecode is the cycle-accurate Fig. 8 decode.
func timedDecode(stream []byte) ([]*media.Frame, error) {
	sys := NewSystem(Fig8())
	defer sys.Shutdown()
	app, err := sys.AddDecodeApp("dec", stream, DecodeOptions{})
	if err != nil {
		return nil, err
	}
	if _, err := sys.Run(500_000_000); err != nil {
		return nil, err
	}
	return app.Frames(), nil
}

// firstFrameFunctional is the functional decode with a sink that keeps
// the first frame for a repeated display index where batch keeps the
// last: FuzzDecodersAgree's negative control.
func firstFrameFunctional(stream []byte) ([]*media.Frame, error) {
	seq, err := ParseSeq(stream)
	if err != nil {
		return nil, err
	}
	var out copro.FunctionalSink
	funcs := copro.FunctionalDecodeFuncs(stream, seq, &out)
	funcs["sink"] = func(c *kpn.TaskCtx) error {
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
				var pix media.MBPixels
				if err := c.Read("hdr", hbuf[:]); err != nil {
					return err
				}
				if err := c.Read("pix", pix[:]); err != nil {
					return err
				}
				frame.SetMB(mb%seq.MBCols, mb/seq.MBCols, &pix)
			}
			if i := int(hdr.TRef); i < len(out.Frames) && out.Frames[i] == nil {
				out.Frames[i] = frame
			}
		}
		return nil
	}
	if err := kpn.Run(DecodeGraph("fdec", DefaultDecodeBuffers()), funcs); err != nil {
		return nil, err
	}
	return out.Frames, nil
}

// bitstreamClass reports whether err is a stream fault. Batch returns
// an ErrBitstream; the KPN decoders do not keep the chain: the functional
// VLD reports a truncation as "bitstream ended", and the timed decode
// turns a coprocessor's fault into a simulator failure that keeps only
// its text. So the class is read from the text.
func bitstreamClass(err error) bool {
	return errors.Is(err, media.ErrBitstream) || strings.Contains(err.Error(), media.ErrBitstream.Error()) ||
		strings.Contains(err.Error(), "vld: bitstream ended")
}

// sameOutcome describes how got (frames, err) differs from the batch
// decode's want: a verdict or an error class (ErrBitstream or not) that
// differs, or a frame, nil slots included, that is not the same; or "".
func sameOutcome(want []*media.Frame, werr error, got []*media.Frame, err error) string {
	switch {
	case (werr == nil) != (err == nil):
		return fmt.Sprintf("error %v, batch %v", err, werr)
	case werr != nil && bitstreamClass(werr) != bitstreamClass(err):
		return fmt.Sprintf("error %v, batch %v: another class", err, werr)
	case werr != nil:
		return ""
	case len(got) != len(want):
		return fmt.Sprintf("%d frames, batch %d", len(got), len(want))
	}
	for i := range want {
		if (want[i] == nil) != (got[i] == nil) || want[i] != nil && !want[i].Equal(got[i]) {
			return fmt.Sprintf("display %d: another frame than batch", i)
		}
	}
	return ""
}

// decodersDisagree runs a stream of at most 16 macroblocks and 16 frames
// through batch, streaming, functional and the timed Fig. 8 decode and
// describes the first disagreement with batch, or returns "". Functional
// and timed must match batch's verdict, class and frames. Streaming may
// also reject, with ErrBitstream, a stream whose display indices are not
// a bijection, which batch accepts (DecodeWithOptions' documented
// exception).
func decodersDisagree(stream []byte, functional displayDecoder) string {
	if seq, err := ParseSeq(stream); err == nil && (seq.MBCount() > 16 || seq.Frames > 16) {
		return ""
	}
	want, werr := batchDecode(stream)
	for _, d := range []struct {
		name string
		f    displayDecoder
	}{{"functional", functional}, {"timed", timedDecode}, {"streaming", streamingDecode}} {
		got, err := d.f(stream)
		if d.name == "streaming" && werr == nil && errors.Is(err, media.ErrBitstream) && strings.Contains(err.Error(), "display index") {
			continue
		}
		if d.name == "timed" && werr != nil && strings.Contains(werr.Error(), "read past end") && err != nil && strings.Contains(err.Error(), "application deadlock") {
			continue // no end-of-stream token: a truncated stream stalls the timed VLD
		}
		if msg := sameOutcome(want, werr, got, err); msg != "" {
			return d.name + ": " + msg
		}
	}
	return ""
}

// decodersSeeds are a 32×32 clip (7 frames, N=7, M=3), every 97th of its
// truncations and of its single-bit flips, and the clip with coded frame
// 2's display index rewritten to coded frame 1's (display 3 twice).
func decodersSeeds(tb testing.TB) [][]byte {
	cc := media.DefaultCodec(32, 32)
	cc.GOPN, cc.GOPM = 7, 3
	stream, _, _, err := media.Encode(cc, media.NewSource(media.DefaultSource(32, 32)).Frames(7))
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{stream}
	for n := 0; n < len(stream); n += 97 {
		seeds = append(seeds, stream[:n])
	}
	for bit := 5; bit < 8*len(stream); bit += 97 {
		flip := append([]byte(nil), stream...)
		flip[bit/8] ^= 0x80 >> (bit % 8)
		seeds = append(seeds, flip)
	}
	ix, err := media.IndexGOPs(stream, nil)
	if err != nil {
		tb.Fatal(err)
	}
	dup := append([]byte(nil), stream...)
	for i, bit := 0, ix.FrameBit(2)+18; i < 16; i, bit = i+1, bit+1 { // TRef, 16 bits: 3
		dup[bit/8] = dup[bit/8]&^(0x80>>(bit%8)) | byte(3>>(15-i)&1)<<(7-bit%8)
	}
	return append(seeds, dup)
}

// FuzzDecodersAgree holds the four decoders to one verdict on small
// streams: batch, functional and timed to the same frames or the same
// error class, streaming too but for its display-index exception.
func FuzzDecodersAgree(f *testing.F) {
	for _, s := range decodersSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		if msg := decodersDisagree(stream, functionalDecode); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestDecodersAgreeCatchesFirstFrameSink is the fuzzer's negative
// control: with a functional sink that keeps the first frame for a
// repeated display index, some seed must disagree.
func TestDecodersAgreeCatchesFirstFrameSink(t *testing.T) {
	for _, s := range decodersSeeds(t) {
		if msg := decodersDisagree(s, firstFrameFunctional); msg != "" {
			t.Logf("caught: %s", msg)
			return
		}
	}
	t.Fatal("a first-frame functional sink passed every seed")
}
