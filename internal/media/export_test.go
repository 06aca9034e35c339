package media

import "slices"

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

// Cuts returns the decode-side closed cut positions (display == coded
// positions, by closure), ascending, excluding the trivial 0 and Frames.
func (ix *GOPIndex) Cuts() []int { return ix.cuts }

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
