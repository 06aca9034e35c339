package media

import (
	"fmt"
	"slices"
	"testing"
)

// Accessors and allocating convenience forms that only this package's
// tests call.

// ParseMBSyntax is the allocating convenience form of ParseMBSyntaxInto:
// each call returns a token with its own backing storage.
func ParseMBSyntax(r *BitReader, ftype FrameType, mvp *MVPredictor) (MBDecision, TokenMB, error) {
	var tok TokenMB
	dec, err := ParseMBSyntaxInto(r, ftype, mvp, &tok)
	return dec, tok, err
}

// ParseTokenMB is the allocating convenience form of ParseTokenMBInto:
// each call returns a token with its own backing storage.
func ParseTokenMB(src []byte) (TokenMB, int, error) {
	var tok TokenMB
	n, err := ParseTokenMBInto(src, &tok)
	if err != nil {
		return TokenMB{}, 0, err
	}
	return tok, n, nil
}

// TranscodeCuts returns the cut positions usable by a segment-parallel
// transcode (the served engine confirms its predicted cuts with ConfirmCuts instead) into a (gopN, gopM) output structure: positions closed on
// both the decode side (this index) and the re-encode side (the output
// GOP structure over the same frame count).
func (ix *GOPIndex) TranscodeCuts(gopN, gopM int) []int {
	enc := EncodeClosedCuts(ix.Seq.Frames, gopN, gopM)
	var out []int
	i, j := 0, 0
	cuts := ix.Cuts()
	for i < len(cuts) && j < len(enc) {
		switch {
		case cuts[i] < enc[j]:
			i++
		case cuts[i] > enc[j]:
			j++
		default:
			out = append(out, cuts[i])
			i++
			j++
		}
	}
	return out
}

// kernelBody is one body of the kernels that useAVX2 dispatches: sad8,
// the search grid's kernel, and dct2d, the transforms'. Tests call sad8
// and dct2d directly; use, where there is more than one body, switches
// the dispatch to this one until the returned func restores the probe's
// pick; skip, when set, says why this host cannot run it. Off amd64 the
// one body is the portable sad8 loop, and there is no dct2d;
// sad8_amd64_test.go lists the assembly bodies.
type kernelBody struct {
	name, skip string
	sad8       sad8Kernel
	dct2d      dctKernel
	use        func() (restore func())
}

var kernelBodies = []kernelBody{{name: "go", sad8: sad8Go}}

// eachKernelBody runs f as one subtest per body in kernelBodies, with the
// dispatch switched to that body.
func eachKernelBody(t *testing.T, f func(t *testing.T, body kernelBody)) {
	for _, b := range kernelBodies {
		t.Run(b.name, func(t *testing.T) {
			if b.skip != "" {
				t.Skip(b.skip)
			}
			if b.use != nil {
				defer b.use()()
			}
			f(t, b)
		})
	}
}

// Cuts returns the decode-side closed cut positions (display == coded
// positions, by closure), ascending, excluding the trivial 0 and Frames.
func (ix *GOPIndex) Cuts() []int { return closedCuts(ix.deps) }

// AlignRead advances to the next byte boundary.
func (r *BitReader) AlignRead() {
	if rem := r.pos & 7; rem != 0 {
		r.Skip(uint(8 - rem))
	}
}

// DoublePuts reports how many Put calls were rejected because the frame
// was already on the free list. Nonzero means a caller released a frame
// it no longer owned; tests assert it stays zero.
func (p *SyncFramePool) DoublePuts() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.doublePuts
}

// Remaining returns the number of unread bits.
func (r *BitReader) Remaining() int { return len(r.buf)*8 - r.pos }

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame { return &Frame{W: f.W, H: f.H, Pix: slices.Clone(f.Pix)} }

// Encode appends the symbol's code to the bit writer. EncodeRunLevel and
// EncodeEOB write precomputed codes, so only tests encode a symbol alone.
func (t *HuffTable) Encode(w *BitWriter, sym int) {
	c := t.codes[sym]
	if c.Len == 0 {
		panic(fmt.Sprintf("media: encoding symbol %d with no code", sym))
	}
	w.WriteBits(c.Bits, uint(c.Len))
}

// The separate RLSQ passes that quantScan and DequantScan fuse, kept as
// their reference models.

// ZigzagScan permutes a row-major coefficient block into zigzag order.
func ZigzagScan(src, dst *Block) {
	for i, p := range zigzag {
		dst[i] = src[p]
	}
}

// InverseZigzag permutes a zigzag-ordered block back to row-major order.
func InverseZigzag(src, dst *Block) {
	for i, p := range zigzag {
		dst[p] = src[i]
	}
}

// QuantizeInter divides coefficients by 2q with truncation toward zero
// and clamps levels to ±MaxLevel.
func QuantizeInter(src, dst *Block, q int) {
	d := int32(2 * q)
	for i, c := range src {
		lvl := int32(c) / d
		if lvl > MaxLevel {
			lvl = MaxLevel
		}
		if lvl < -MaxLevel {
			lvl = -MaxLevel
		}
		dst[i] = int16(lvl)
	}
}

// Quantize divides coefficients by 2q with symmetric rounding and clamps
// levels to ±MaxLevel.
func Quantize(src, dst *Block, q int) {
	d := int32(2 * q)
	half := d / 2
	for i, c := range src {
		v := int32(c)
		var lvl int32
		if v >= 0 {
			lvl = (v + half) / d
		} else {
			lvl = -((-v + half) / d)
		}
		if lvl > MaxLevel {
			lvl = MaxLevel
		}
		if lvl < -MaxLevel {
			lvl = -MaxLevel
		}
		dst[i] = int16(lvl)
	}
}

// Dequantize multiplies levels by 2q, clamped to int16.
func Dequantize(src, dst *Block, q int) {
	d := int32(2 * q)
	for i, l := range src {
		dst[i] = clamp16(int32(l) * d)
	}
}

// NonzeroCount returns the number of nonzero coefficients in the block.
func NonzeroCount(b *Block) int {
	n := 0
	for _, c := range b {
		if c != 0 {
			n++
		}
	}
	return n
}
