package media

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

// FetchMB is fetch, the edge-clamped 16×16 reference fetch.
func FetchMB(dst *MBPixels, ref *Frame, x, y int) { fetch(dst, ref, x, y) }
