package media

import (
	"encoding/binary"
	"fmt"
)

// Run/level variable-length coding of quantized DCT coefficients.
//
// Quantized 8×8 blocks are zigzag-scanned into (run, level) events: `run`
// zero coefficients followed by a nonzero coefficient `level`, terminated
// by an end-of-block event. Common events are coded with a canonical
// Huffman table built at package initialization from a fixed synthetic
// frequency model (standing in for MPEG-2's hand-designed table B-14);
// rare events use an escape code with fixed-length run and level fields.
// This gives the decoder genuinely data-dependent work per block, which
// is what makes the VLD coprocessor's load irregular (paper Section 2.2).

const (
	vlcMaxRun   = 15 // runs 0..15 have Huffman-coded events
	vlcMaxLevel = 8  // |level| 1..8 have Huffman-coded events
	// escape field widths
	escRunBits   = 6
	escLevelBits = 12
	// MaxLevel is the largest |level| the escape code can represent.
	MaxLevel = 1<<(escLevelBits-1) - 1
	// MaxRun is the largest run the escape code can represent.
	MaxRun = 1<<escRunBits - 1
)

// Symbol space: 0 = EOB, 1 = ESC, 2.. = (run, |level|) pairs.
const (
	symEOB = 0
	symESC = 1
)

func pairSym(run int, absLevel int32) int {
	return 2 + run*vlcMaxLevel + int(absLevel) - 1
}

var coefTable *HuffTable

// pairCodes[2·(sym−2) + sign] is pair symbol sym's code followed by its
// sign bit (1 for a negative level), packed as bits<<8 | length, so a
// pair event is one WriteBits. ESC's code is written with the run in one
// WriteBits.
var (
	pairCodes        [2 * (vlcMaxRun + 1) * vlcMaxLevel]uint32
	escCode, eobCode HuffCode
)

func init() {
	// Synthetic frequency model: short runs and small levels dominate, as
	// in real DCT statistics. EOB occurs once per block; escapes are rare.
	nsym := 2 + (vlcMaxRun+1)*vlcMaxLevel
	freq := make([]uint64, nsym)
	freq[symEOB] = 1 << 22
	freq[symESC] = 1 << 8
	for run := 0; run <= vlcMaxRun; run++ {
		for lvl := 1; lvl <= vlcMaxLevel; lvl++ {
			freq[pairSym(run, int32(lvl))] = uint64(1<<24) / uint64((run+2)*(run+2)*lvl*lvl)
		}
	}
	t, err := NewHuffTable(HuffCodeLengths(freq))
	if err != nil {
		panic(err)
	}
	coefTable = t
	escCode, eobCode = t.codes[symESC], t.codes[symEOB]
	for i := range pairCodes {
		c := t.codes[2+i/2]
		if c.Len == 0 || c.Len > 23 {
			panic("media: run/level pair code does not pack")
		}
		pairCodes[i] = (c.Bits<<1|uint32(i&1))<<8 | uint32(c.Len+1)
	}
}

// RunLevel is one entropy-coding event: Run zero coefficients followed by
// a nonzero coefficient Level. Level 0 never occurs in a valid event.
type RunLevel struct {
	Run   int
	Level int32
}

// EncodeRunLevel appends the VLC for one run/level event: a table pair
// (run ≤ 15, |level| ≤ 8) as its code and sign bit in one write, any
// other event as ESC and the run, then the level in two's complement. It
// panics on an event the escape fields cannot carry: a run outside
// 0..MaxRun, a zero level, or a level outside the 12-bit field's
// −MaxLevel−1..MaxLevel.
func EncodeRunLevel(w *BitWriter, rl RunLevel) {
	neg := rl.Level >> 31 // 0 or −1; (x ^ neg) − neg is |x|
	abs := (rl.Level ^ neg) - neg
	if uint(rl.Run) <= vlcMaxRun && uint32(abs-1) < vlcMaxLevel {
		e := pairCodes[(rl.Run*vlcMaxLevel+int(abs)-1)<<1|int(neg&1)]
		w.WriteBits(e>>8, uint(e&0xff))
		return
	}
	if uint(rl.Run) > MaxRun || rl.Level == 0 || rl.Level < -MaxLevel-1 || rl.Level > MaxLevel {
		panic(fmt.Sprintf("media: run/level event %+v has no code", rl))
	}
	w.WriteBits(escCode.Bits<<escRunBits|uint32(rl.Run), uint(escCode.Len)+escRunBits)
	w.WriteBits(uint32(rl.Level)&(1<<escLevelBits-1), escLevelBits)
}

// EncodeEOB appends the end-of-block code.
func EncodeEOB(w *BitWriter) { w.WriteBits(eobCode.Bits, uint(eobCode.Len)) }

// DecodeRunLevel reads one event. eob is true when the event was
// end-of-block (rl is then the zero value). bits is the number of
// bitstream bits consumed, which the VLD coprocessor model uses for its
// cycle cost. On bitstream errors the reader's sticky error is set.
func DecodeRunLevel(r *BitReader) (rl RunLevel, eob bool, bits uint) {
	return decodeRunLevel(coefTable, r)
}

// decodeRunLevel decodes one event with t. With no sticky error and 8
// bytes left, one 64-bit load shifted by pos&7 holds ≥ 57 bits, more than
// the longest event (ESC's 15 + 18 bits), so the code and its sign or ESC
// fields all come from one word. Otherwise (tail, sticky error, invalid
// prefix) decodeRunLevelSlow runs, the oracle the window path is held to.
func decodeRunLevel(t *HuffTable, r *BitReader) (rl RunLevel, eob bool, bits uint) {
	if i := r.pos >> 3; r.err == nil && i+8 <= len(r.buf) {
		w := binary.BigEndian.Uint64(r.buf[i:]) << uint(r.pos&7)
		if sym, n := t.lookup(w); n != 0 {
			switch sym {
			case symEOB:
				eob = true
			case symESC:
				rl.Run = int(w << n >> (64 - escRunBits))
				rl.Level = int32(int64(w<<(n+escRunBits)) >> (64 - escLevelBits)) // sign-extend
				n += escRunBits + escLevelBits
			default:
				neg := int32(w << n >> 63) // the sign bit; (x ^ -neg) + neg is x or −x
				rl.Run, rl.Level = (sym-2)/vlcMaxLevel, (int32((sym-2)%vlcMaxLevel)+1^-neg)+neg
				n++
			}
			r.pos += int(n)
			return rl, eob, n
		}
	}
	return decodeRunLevelSlow(t, r)
}

// decodeRunLevelSlow decodes the code, then its fields, each read checked.
func decodeRunLevelSlow(t *HuffTable, r *BitReader) (rl RunLevel, eob bool, bits uint) {
	sym, n := t.Decode(r)
	bits = n
	switch {
	case sym < 0:
		return RunLevel{}, true, bits // reader error is set
	case sym == symEOB:
		return RunLevel{}, true, bits
	case sym == symESC:
		run := int(r.ReadBits(escRunBits))
		raw := r.ReadBits(escLevelBits)
		lvl := int32(raw<<(32-escLevelBits)) >> (32 - escLevelBits) // sign-extend
		bits += escRunBits + escLevelBits
		return RunLevel{Run: run, Level: lvl}, false, bits
	default:
		s := sym - 2
		run := s / vlcMaxLevel
		abs := int32(s%vlcMaxLevel) + 1
		sign := r.ReadBit()
		bits++
		if sign == 1 {
			abs = -abs
		}
		return RunLevel{Run: run, Level: abs}, false, bits
	}
}

// AppendRunLength appends the run/level events of a zigzag-ordered
// coefficient block (without the trailing EOB) to dst and returns the
// extended slice, allocating only if dst lacks capacity.
func AppendRunLength(dst []RunLevel, zz *[64]int16) []RunLevel {
	run := 0
	for _, c := range zz {
		if c == 0 {
			run++
			continue
		}
		dst = append(dst, RunLevel{Run: run, Level: int32(c)})
		run = 0
	}
	return dst
}

// RunLength converts a zigzag-ordered coefficient block into run/level
// events (without the trailing EOB), allocating a fresh slice.
func RunLength(zz *[64]int16) []RunLevel { return AppendRunLength(nil, zz) }

// RunLengthExpand reconstructs a zigzag-ordered coefficient block from
// run/level events. It reports false if the events overflow 64
// coefficients or contain an invalid zero level.
func RunLengthExpand(events []RunLevel, zz *[64]int16) bool {
	*zz = [64]int16{}
	pos := 0
	for _, e := range events {
		pos += e.Run
		if pos >= 64 || e.Level == 0 || e.Run < 0 {
			return false
		}
		zz[pos] = int16(e.Level)
		pos++
	}
	return true
}
