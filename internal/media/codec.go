package media

import (
	"fmt"
)

// Bitstream syntax (our own, documented here; see DESIGN.md for the
// substitution rationale):
//
//	sequence  := magic(32) mbCols(8) mbRows(8) q(6) gopN(8) gopM(4) frames(16) halfpel(1)
//	frame     := marker(16=0xFFA5) type(2) tref(16) mbdata...
//	mb (I)    := cbp(4) block*popcount(cbp)
//	mb (P)    := skip(1) | mode(1: 1=intra) [mvd_x(se) mvd_y(se)] cbp(4) blocks
//	mb (B)    := mode(2: 0=fwd 1=bwd 2=bi 3=intra) [mvds per used dir] cbp(4) blocks
//	block     := (runlevel-vlc)* eob
//
// Frames appear in coded order (references before the B frames that use
// them); the tref field carries the display index.

const (
	seqMagic     = 0x45434C31 // "ECL1"
	frameMarker  = 0xFFA5
	frameHdrBits = 16 + 2 + 16 // marker, type, tref
)

// SeqHeader carries the sequence-level parameters every pipeline stage
// needs. It is written once at the start of the bitstream.
type SeqHeader struct {
	MBCols, MBRows int
	Q              int  // quantizer, 1..63
	GOPN           int  // GOP length in display frames
	GOPM           int  // reference spacing (1 = no B frames, 3 = IBBP...)
	Frames         int  // total coded frames
	HalfPel        bool // motion vectors in half-pel units (MPEG-2 MC mode)
}

// W returns the picture width in pixels.
func (h *SeqHeader) W() int { return h.MBCols * MBSize }

// H returns the picture height in pixels.
func (h *SeqHeader) H() int { return h.MBRows * MBSize }

// MBCount returns macroblocks per frame.
func (h *SeqHeader) MBCount() int { return h.MBCols * h.MBRows }

// WriteSeqHeader serializes the sequence header.
func WriteSeqHeader(w *BitWriter, h *SeqHeader) {
	w.WriteBits(seqMagic, 32)
	w.WriteBits(uint32(h.MBCols), 8)
	w.WriteBits(uint32(h.MBRows), 8)
	w.WriteBits(uint32(h.Q), 6)
	w.WriteBits(uint32(h.GOPN), 8)
	w.WriteBits(uint32(h.GOPM), 4)
	w.WriteBits(uint32(h.Frames), 16)
	if h.HalfPel {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// ParseSeqHeader reads and validates the sequence header.
func ParseSeqHeader(r *BitReader) (SeqHeader, error) {
	if m := r.ReadBits(32); m != seqMagic {
		return SeqHeader{}, fmt.Errorf("%w: bad magic %#x", ErrBitstream, m)
	}
	h := SeqHeader{
		MBCols: int(r.ReadBits(8)),
		MBRows: int(r.ReadBits(8)),
		Q:      int(r.ReadBits(6)),
		GOPN:   int(r.ReadBits(8)),
		GOPM:   int(r.ReadBits(4)),
		Frames: int(r.ReadBits(16)),
	}
	h.HalfPel = r.ReadBits(1) == 1
	if r.Err() != nil {
		return SeqHeader{}, r.Err()
	}
	if h.MBCols == 0 || h.MBRows == 0 || h.Q == 0 || h.GOPM == 0 {
		return SeqHeader{}, fmt.Errorf("%w: invalid sequence header %+v", ErrBitstream, h)
	}
	return h, nil
}

// FrameHdr is the per-frame header.
type FrameHdr struct {
	Type FrameType
	TRef uint16 // display index
}

// WriteFrameHdr serializes a frame header.
func WriteFrameHdr(w *BitWriter, h FrameHdr) {
	w.WriteBits(frameMarker, 16)
	w.WriteBits(uint32(h.Type), 2)
	w.WriteBits(uint32(h.TRef), 16)
}

// ParseFrameHdr reads and validates a frame header.
func ParseFrameHdr(r *BitReader) (FrameHdr, error) {
	if m := r.ReadBits(16); m != frameMarker {
		if r.Err() != nil {
			return FrameHdr{}, r.Err()
		}
		return FrameHdr{}, fmt.Errorf("%w: bad frame marker %#x at bit %d", ErrBitstream, m, r.BitPos())
	}
	h := FrameHdr{Type: FrameType(r.ReadBits(2)), TRef: uint16(r.ReadBits(16))}
	if r.Err() != nil {
		return FrameHdr{}, r.Err()
	}
	if h.Type > FrameB {
		return FrameHdr{}, fmt.Errorf("%w: bad frame type %d", ErrBitstream, h.Type)
	}
	return h, nil
}

// CodecConfig parameterizes the encoder.
type CodecConfig struct {
	W, H        int
	Q           int // quantizer, 1..63; higher = coarser
	GOPN        int // GOP length in display frames, e.g. 12
	GOPM        int // reference spacing: 1 = IPPP, 3 = IBBPBBP...
	SearchRange int // full-pel motion search radius
	// HalfPel enables half-pel motion vectors with bilinear
	// interpolation (the MPEG-2 MC mode); vectors in the bitstream are
	// then in half-pel units.
	HalfPel bool
}

// DefaultCodec returns encoder settings producing MPEG-like GOPs
// (IBBPBBP..., N=12, M=3) at a mid quantizer.
func DefaultCodec(w, h int) CodecConfig {
	return CodecConfig{W: w, H: h, Q: 6, GOPN: 12, GOPM: 3, SearchRange: 7}
}

// Validate checks the configuration for consistency.
func (c *CodecConfig) Validate() error { return c.validate() }

func (c *CodecConfig) validate() error {
	if c.W <= 0 || c.H <= 0 || c.W%MBSize != 0 || c.H%MBSize != 0 {
		return fmt.Errorf("media: bad dimensions %dx%d", c.W, c.H)
	}
	if c.Q < 1 || c.Q > 63 {
		return fmt.Errorf("media: quantizer %d out of range [1,63]", c.Q)
	}
	if c.GOPN < 1 || c.GOPN > 255 {
		return fmt.Errorf("media: GOP length %d out of range [1,255]", c.GOPN)
	}
	if c.GOPM < 1 || c.GOPM > 15 || c.GOPM > c.GOPN {
		return fmt.Errorf("media: GOP M %d invalid for N %d", c.GOPM, c.GOPN)
	}
	if c.SearchRange < 0 || c.SearchRange > maxSearchRange {
		return fmt.Errorf("media: search range %d out of range [0,%d]", c.SearchRange, maxSearchRange)
	}
	return nil
}

// GOPTypes returns the frame types of a sequence of n frames in display
// order for the given GOP parameters. Frame 0 is always I; the last frame
// is promoted to a reference so no B frame lacks its backward reference.
func GOPTypes(n, gopN, gopM int) []FrameType {
	types := make([]FrameType, n)
	for i := 0; i < n; i++ {
		switch {
		case i%gopN == 0:
			types[i] = FrameI
		case (i%gopN)%gopM == 0:
			types[i] = FrameP
		default:
			types[i] = FrameB
		}
	}
	if n > 0 && types[n-1] == FrameB {
		types[n-1] = FrameP
	}
	return types
}

// CodedOrder converts display order to coded order: each reference frame
// precedes the B frames that reference it. It returns the display indices
// in coded order.
func CodedOrder(types []FrameType) []int {
	var order []int
	var pendingB []int
	for i, t := range types {
		if t == FrameB {
			pendingB = append(pendingB, i)
			continue
		}
		order = append(order, i)
		order = append(order, pendingB...)
		pendingB = nil
	}
	return append(order, pendingB...) // only non-empty for malformed inputs
}

// MVPredictor implements the MV prediction rule shared by encoder and
// decoder: per direction, the predictor is the previous macroblock's
// vector in that direction; it resets to zero at each macroblock-row
// start and after intra or skip macroblocks, and after macroblocks that
// do not use the direction.
type MVPredictor struct {
	Fwd, Bwd MV
}

// RowStart resets the predictor at the start of a macroblock row.
func (p *MVPredictor) RowStart() { *p = MVPredictor{} }

// Update advances the predictor past a coded macroblock.
func (p *MVPredictor) Update(mode PredMode, fmv, bmv MV) {
	switch mode {
	case PredFwd:
		p.Fwd, p.Bwd = fmv, MV{}
	case PredBwd:
		p.Fwd, p.Bwd = MV{}, bmv
	case PredBi:
		p.Fwd, p.Bwd = fmv, bmv
	default: // intra, skip
		*p = MVPredictor{}
	}
}

// MBDecision is the coding choice for one macroblock: prediction mode and
// motion vectors. It is produced by the encoder's mode decision (or the
// ME coprocessor) and recovered by the VLD when decoding.
type MBDecision struct {
	Mode     PredMode
	FMV, BMV MV
}

// bModeCode maps a B-frame prediction mode to its 2-bit code.
func bModeCode(m PredMode) int {
	switch m {
	case PredFwd:
		return 0
	case PredBwd:
		return 1
	case PredBi:
		return 2
	case PredIntra:
		return 3
	}
	panic("media: invalid B mode")
}

// bModeFromCode is the inverse of bModeCode.
func bModeFromCode(c uint32) PredMode {
	switch c {
	case 0:
		return PredFwd
	case 1:
		return PredBwd
	case 2:
		return PredBi
	default:
		return PredIntra
	}
}
