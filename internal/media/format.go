package media

import (
	"encoding/binary"
	"fmt"
)

// Inter-stage stream formats.
//
// The Eclipse pipeline stages exchange data through byte streams (Kahn
// channels / stream buffers); this file defines the packed record formats
// on those streams. All multi-byte integers are little endian.
//
//	header stream (VLD → MC), per frame:
//	    frame record:  0xFA type tref[2]                      (4 bytes)
//	    per MB:        mode fmvx[2] fmvy[2] bmvx[2] bmvy[2]   (9 bytes)
//	token stream (VLD → RLSQ), per frame:
//	    frame record:  0xFB type tref[2]                      (4 bytes)
//	    per MB:        len[2] cbp, then per coded block (ascending):
//	                   events (run, level[2])*, EOB = 0xFF 00 00
//	    (len counts the bytes after the length field, so the consumer
//	     can acquire the whole variable-size record with two GetSpace
//	     requests instead of one per event)
//	coefficient / residual streams (RLSQ → DCT → MC):
//	    per block: 64 × int16                                 (128 bytes)
//	    per MB:    4 blocks                                   (512 bytes)
//	pixel stream (MC → sink):
//	    per MB: 256 bytes, macroblocks in raster order
//
// The token records are variable length, so the consuming coprocessor
// cannot know a macroblock's size before reading it — the data-dependent
// communication the Eclipse shell interface is designed for.

const (
	// FrameRecHdr tags a frame record on the header stream.
	FrameRecHdr = 0xFA
	// FrameRecTok tags a frame record on the token stream.
	FrameRecTok = 0xFB
	// TokEOB terminates a coded block's event list on the token stream.
	TokEOB = 0xFF

	// FrameRecSize is the byte size of a frame record.
	FrameRecSize = 4
	// MBHeaderSize is the byte size of a macroblock header record.
	MBHeaderSize = 9
	// TokenEventSize is the byte size of one run/level event (and of the
	// EOB terminator) on the token stream.
	TokenEventSize = 3
	// BlockBytes is the byte size of one 8×8 coefficient/residual block.
	BlockBytes = 128
	// MBCoefBytes is the byte size of a macroblock's four blocks.
	MBCoefBytes = BlocksPerMB * BlockBytes
	// MBPixBytes is the byte size of a reconstructed macroblock.
	MBPixBytes = MBSize * MBSize
)

// AppendFrameRec appends a frame record with the given tag.
func AppendFrameRec(dst []byte, tag byte, hdr FrameHdr) []byte {
	return append(dst, tag, byte(hdr.Type), byte(hdr.TRef), byte(hdr.TRef>>8))
}

// ParseFrameRec decodes a frame record, checking the tag.
func ParseFrameRec(src []byte, tag byte) (FrameHdr, error) {
	if len(src) < FrameRecSize {
		return FrameHdr{}, fmt.Errorf("%w: short frame record", ErrBitstream)
	}
	if src[0] != tag {
		return FrameHdr{}, fmt.Errorf("%w: frame record tag %#x, want %#x", ErrBitstream, src[0], tag)
	}
	t := FrameType(src[1])
	if t > FrameB {
		return FrameHdr{}, fmt.Errorf("%w: frame record type %d", ErrBitstream, src[1])
	}
	return FrameHdr{Type: t, TRef: binary.LittleEndian.Uint16(src[2:])}, nil
}

// AppendMBHeader appends a macroblock header record (header stream).
func AppendMBHeader(dst []byte, dec MBDecision) []byte {
	var b [MBHeaderSize]byte
	b[0] = byte(dec.Mode)
	binary.LittleEndian.PutUint16(b[1:], uint16(dec.FMV.X))
	binary.LittleEndian.PutUint16(b[3:], uint16(dec.FMV.Y))
	binary.LittleEndian.PutUint16(b[5:], uint16(dec.BMV.X))
	binary.LittleEndian.PutUint16(b[7:], uint16(dec.BMV.Y))
	return append(dst, b[:]...)
}

// ParseMBHeader decodes a macroblock header record.
func ParseMBHeader(src []byte) (MBDecision, error) {
	if len(src) < MBHeaderSize {
		return MBDecision{}, fmt.Errorf("%w: short mb header record", ErrBitstream)
	}
	if src[0] > byte(PredSkip) {
		return MBDecision{}, fmt.Errorf("%w: mb header mode %d", ErrBitstream, src[0])
	}
	return MBDecision{
		Mode: PredMode(src[0]),
		FMV: MV{int16(binary.LittleEndian.Uint16(src[1:])),
			int16(binary.LittleEndian.Uint16(src[3:]))},
		BMV: MV{int16(binary.LittleEndian.Uint16(src[5:])),
			int16(binary.LittleEndian.Uint16(src[7:]))},
	}, nil
}

// TokenLenSize is the byte size of the token record length prefix.
const TokenLenSize = 2

// AppendTokenMB appends a macroblock's token record (token stream): a
// 2-byte length prefix, the cbp byte, then per coded block the events and
// an EOB terminator.
func AppendTokenMB(dst []byte, tok *TokenMB) []byte {
	body := TokenMBSize(tok) - TokenLenSize
	dst = append(dst, byte(body), byte(body>>8))
	dst = append(dst, tok.CBP)
	for b := 0; b < BlocksPerMB; b++ {
		if tok.CBP&(1<<b) == 0 {
			continue
		}
		for _, e := range tok.Events[b] {
			if e.Run < 0 || e.Run > MaxRun {
				panic(fmt.Sprintf("media: token run %d out of range", e.Run))
			}
			dst = append(dst, byte(e.Run), byte(e.Level), byte(e.Level>>8))
		}
		dst = append(dst, TokEOB, 0, 0)
	}
	return dst
}

// TokenMBSize returns the encoded byte size of a token record, including
// the length prefix.
func TokenMBSize(tok *TokenMB) int {
	n := TokenLenSize + 1
	for b := 0; b < BlocksPerMB; b++ {
		if tok.CBP&(1<<b) == 0 {
			continue
		}
		n += (len(tok.Events[b]) + 1) * TokenEventSize
	}
	return n
}

// ParseTokenMBInto decodes a complete token record (including the length
// prefix) into a caller-owned token, returning the record's total byte
// size. tok is Reset first; reusing one token across records makes the
// consuming coprocessor model allocation-free (see tokens.go for the
// arena ownership rules). On error tok's contents are unspecified.
func ParseTokenMBInto(src []byte, tok *TokenMB) (int, error) {
	if len(src) < TokenLenSize+1 {
		return 0, fmt.Errorf("%w: short token record", ErrBitstream)
	}
	body := int(binary.LittleEndian.Uint16(src))
	if len(src) < TokenLenSize+body {
		return 0, fmt.Errorf("%w: truncated token record (%d of %d)", ErrBitstream, len(src), TokenLenSize+body)
	}
	n, err := parseTokenBodyInto(src[TokenLenSize:TokenLenSize+body], tok)
	if err != nil {
		return 0, err
	}
	if n != body {
		return 0, fmt.Errorf("%w: token record length %d, content %d", ErrBitstream, body, n)
	}
	return TokenLenSize + body, nil
}

// parseTokenBodyInto decodes the cbp+events portion of a token record
// into the token's arena.
func parseTokenBodyInto(src []byte, tok *TokenMB) (int, error) {
	tok.Reset()
	if len(src) < 1 {
		return 0, fmt.Errorf("%w: empty token body", ErrBitstream)
	}
	if src[0] > 0x0F {
		return 0, fmt.Errorf("%w: token cbp %#x", ErrBitstream, src[0])
	}
	tok.CBP = src[0] & 0x0F
	pos := 1
	for b := 0; b < BlocksPerMB; b++ {
		if tok.CBP&(1<<b) == 0 {
			continue
		}
		tok.ensureArena()
		start := len(tok.arena)
		for {
			if len(src) < pos+TokenEventSize {
				return 0, fmt.Errorf("%w: truncated token events", ErrBitstream)
			}
			run := src[pos]
			level := int32(int16(binary.LittleEndian.Uint16(src[pos+1:])))
			pos += TokenEventSize
			if run == TokEOB {
				tok.sealBlock(b, start)
				break
			}
			tok.arena = append(tok.arena, RunLevel{Run: int(run), Level: level})
			if len(tok.arena)-start > maxBlockEvents {
				return 0, fmt.Errorf("%w: token overflow", ErrBitstream)
			}
		}
	}
	return pos, nil
}

// AppendBlock appends one coefficient/residual block (128 bytes).
func AppendBlock(dst []byte, b *Block) []byte {
	var buf [BlockBytes]byte
	for i, v := range b {
		binary.LittleEndian.PutUint16(buf[i*2:], uint16(v))
	}
	return append(dst, buf[:]...)
}

// ParseBlock decodes one coefficient/residual block.
func ParseBlock(src []byte, b *Block) error {
	if len(src) < BlockBytes {
		return fmt.Errorf("%w: short block record", ErrBitstream)
	}
	for i := range b {
		b[i] = int16(binary.LittleEndian.Uint16(src[i*2:]))
	}
	return nil
}

// AppendMBBlocks appends a macroblock's four blocks (512 bytes).
func AppendMBBlocks(dst []byte, blocks *[BlocksPerMB]Block) []byte {
	for b := range blocks {
		dst = AppendBlock(dst, &blocks[b])
	}
	return dst
}

// ParseMBBlocks decodes a macroblock's four blocks.
func ParseMBBlocks(src []byte, blocks *[BlocksPerMB]Block) error {
	if len(src) < MBCoefBytes {
		return fmt.Errorf("%w: short mb blocks record", ErrBitstream)
	}
	for b := range blocks {
		if err := ParseBlock(src[b*BlockBytes:], &blocks[b]); err != nil {
			return err
		}
	}
	return nil
}
