package media

import (
	"errors"
	"fmt"
)

// ErrNeedData is returned by StreamVLD.Next when the available input
// bytes end in the middle of a syntax element. The caller extends the
// input (Extend) and retries; the parser position is unchanged. This is
// the software analogue of the Eclipse VLD coprocessor's data-dependent
// input behaviour: it cannot know how many input bytes a macroblock needs
// before parsing it (paper Section 4.2).
var ErrNeedData = errors.New("media: need more input data")

// VLDEventKind discriminates StreamVLD events.
type VLDEventKind uint8

const (
	// EventSeq reports the parsed sequence header (first event).
	EventSeq VLDEventKind = iota
	// EventFrame reports a frame header; macroblock events follow.
	EventFrame
	// EventMB reports one parsed macroblock (decision + tokens).
	EventMB
	// EventEnd reports the end of the sequence (all frames parsed).
	EventEnd
)

// VLDEvent is one unit of streaming VLD output.
type VLDEvent struct {
	Kind  VLDEventKind
	Seq   SeqHeader  // EventSeq
	Frame FrameHdr   // EventFrame
	MB    MBDecision // EventMB
	Tok   TokenMB    // EventMB
	Bits  int        // bitstream bits consumed by this event
}

// StreamVLD is an incremental variable-length decoder over a bitstream
// that arrives in chunks. Each Next call parses exactly one syntax unit
// (sequence header, frame header, or macroblock); if the input runs dry
// mid-unit, Next returns ErrNeedData with all parser state rolled back so
// the unit can be re-parsed after more input arrives — mirroring the
// Eclipse coprocessor pattern of aborting a processing step on a denied
// GetSpace and re-executing it later.
type StreamVLD struct {
	r        *BitReader
	seqDone  bool
	seq      SeqHeader
	frameIdx int // coded frames completed
	mbIdx    int // macroblocks parsed in the current frame
	inFrame  bool
	hdr      FrameHdr
	mvp      MVPredictor
	done     bool
	tok      TokenMB // reused across macroblocks (event arena)
}

// NewStreamVLD returns a parser with no input yet.
func NewStreamVLD() *StreamVLD {
	return &StreamVLD{r: NewBitReader(nil)}
}

// Extend appends input bytes received from the bitstream port.
func (v *StreamVLD) Extend(data []byte) { v.r.Extend(data) }

// Compact discards fully consumed input bytes and returns the count,
// which the coprocessor model uses to commit (PutSpace) its input.
func (v *StreamVLD) Compact() int { return v.r.Compact() }

// vldState snapshots everything Next mutates, for rollback.
type vldState struct {
	mark     readerMark
	seqDone  bool
	seq      SeqHeader
	frameIdx int
	mbIdx    int
	inFrame  bool
	hdr      FrameHdr
	mvp      MVPredictor
	done     bool
}

func (v *StreamVLD) save() vldState {
	return vldState{
		mark: v.r.Mark(), seqDone: v.seqDone, seq: v.seq,
		frameIdx: v.frameIdx, mbIdx: v.mbIdx, inFrame: v.inFrame,
		hdr: v.hdr, mvp: v.mvp, done: v.done,
	}
}

func (v *StreamVLD) restore(s vldState) {
	v.r.Reset(s.mark)
	v.seqDone, v.seq = s.seqDone, s.seq
	v.frameIdx, v.mbIdx, v.inFrame = s.frameIdx, s.mbIdx, s.inFrame
	v.hdr, v.mvp, v.done = s.hdr, s.mvp, s.done
}

// Next parses and returns the next event. It returns ErrNeedData (with
// state rolled back) when more input is required, or a wrapped
// ErrBitstream on corruption.
func (v *StreamVLD) Next() (VLDEvent, error) {
	if v.done {
		return VLDEvent{Kind: EventEnd}, nil
	}
	saved := v.save()
	ev, err := v.parseOne()
	if err != nil {
		pastEnd := v.r.PastEnd() // check before rollback clears it
		v.restore(saved)
		if pastEnd {
			return VLDEvent{}, ErrNeedData
		}
		return VLDEvent{}, err
	}
	return ev, nil
}

func (v *StreamVLD) parseOne() (VLDEvent, error) {
	start := v.r.BitPos()
	if !v.seqDone {
		seq, err := ParseSeqHeader(v.r)
		if err != nil {
			return VLDEvent{}, err
		}
		v.seq = seq
		v.seqDone = true
		if seq.Frames == 0 {
			v.done = true
		}
		return VLDEvent{Kind: EventSeq, Seq: seq, Bits: v.r.BitPos() - start}, nil
	}
	if !v.inFrame {
		hdr, err := ParseFrameHdr(v.r)
		if err != nil {
			return VLDEvent{}, err
		}
		v.hdr = hdr
		v.inFrame = true
		v.mbIdx = 0
		v.mvp = MVPredictor{}
		return VLDEvent{Kind: EventFrame, Frame: hdr, Bits: v.r.BitPos() - start}, nil
	}
	if v.mbIdx%v.seq.MBCols == 0 {
		v.mvp.RowStart()
	}
	dec, err := ParseMBSyntaxInto(v.r, v.hdr.Type, &v.mvp, &v.tok)
	if err != nil {
		return VLDEvent{}, err
	}
	// ev.Tok's event views alias the parser-owned arena: valid until the
	// next Next call (consumers copy what they keep — see tokens.go).
	ev := VLDEvent{Kind: EventMB, MB: dec, Tok: v.tok, Frame: v.hdr, Bits: v.r.BitPos() - start}
	v.mbIdx++
	if v.mbIdx == v.seq.MBCount() {
		v.inFrame = false
		v.frameIdx++
		if v.frameIdx == v.seq.Frames {
			v.done = true
		}
	}
	return ev, nil
}

// Progress describes the parser position for diagnostics.
func (v *StreamVLD) Progress() string {
	return fmt.Sprintf("frame %d/%d mb %d", v.frameIdx, v.seq.Frames, v.mbIdx)
}
