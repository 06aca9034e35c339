package media

// GOP indexing: one VLD-only pass over a bitstream that recovers, per
// coded frame, its bit offset, display index, and reference display
// indices — enough to find the closed cut points where the stream splits
// into independently decodable segments.
//
// A display cut at position c is decode-closed iff
//
//	(a) the coded prefix before the cut covers exactly displays
//	    {0..c-1} (prefix max tref == c-1 at coded position c), and
//	(b) no coded frame at or after the cut depends — through its own
//	    tref or either reference — on a display index < c (suffix
//	    dependency minimum >= c).
//
// (a) alone is not enough: with open GOPs (N=12, M=3) the prefix {0..9}
// is display-contiguous and the frame at the cut is the next GOP's I,
// yet the B frames coded after that I still reference P(9) across the
// cut. (b) catches exactly those. Together they imply the frame at the
// cut is an I frame and each segment starts with an empty reference
// chain, which is what DecodeSegment relies on.
//
// The same analysis applies to the re-encode side of a transcode: the
// output GOP structure is GOPTypes of the *output* configuration, which
// need not match the source's, so a transcode may only split where both
// sides are closed (ConfirmCuts checks the re-encode's on the decode side).

import (
	"fmt"
	"slices"
)

// frameDep is one coded frame's display-index dependencies.
type frameDep struct {
	tref     int
	fwd, bwd int // reference display indices; -1 = none
}

// GOPIndex is the product of IndexGOPs: per-coded-frame bit offsets and
// dependencies of a validated bitstream.
type GOPIndex struct {
	Seq      SeqHeader
	frameBit []int // bit offset of coded frame i's header (frame marker)
	deps     []frameDep
}

// FrameBit returns the bit offset of coded frame c's header. At a closed
// cut c this is where the suffix segment's decode starts.
func (ix *GOPIndex) FrameBit(c int) int { return ix.frameBit[c] }

// IndexGOPs scans a bitstream once — entropy layer only, no
// reconstruction — and returns its GOP index. The scan validates the
// frame structure as the streaming decoder does (reference
// preconditions, TRef bijection with [0, Frames)), so a stream that
// decodes indexes with the same frame count, and a stream the scan
// rejects the decoder rejects too. Not the converse: the token path has
// no RLSQ step, so a block whose runs pass position 63 indexes cleanly
// and fails only in the decoder, with "run/level overflow"
// (TestIndexDecodeAgree's rlsq-overflow row). onFrame, when non-nil,
// is called before each coded frame's header is parsed — the serving
// layer's preemption checkpoint, mirroring DecodeOptions.OnFrame; a
// non-nil return aborts the scan with that error.
func IndexGOPs(stream []byte, onFrame func(coded int) error) (*GOPIndex, error) {
	return indexGOPs(stream, onFrame, nil)
}

// ConfirmCuts is IndexGOPs that scans only until each predicted cut
// (ascending, within (0, Frames)) is settled by closedCuts' rule, and
// reports each closed one as onCut(c, FrameBit(c)). The rule's suffix
// half is settled once both chain references are >= c, two frames past
// a GOP boundary, since later frames reference only the chain. It
// returns len(cuts) after the last cut, or the index of the first cut
// it finds open.
func ConfirmCuts(stream []byte, cuts []int, onFrame func(coded int) error, onCut func(cut, bit int)) (int, error) {
	k := 0
	_, err := indexGOPs(stream, onFrame, func(ix *GOPIndex, refA, refB int, end bool) bool {
		for ; k < len(cuts) && cuts[k] < len(ix.deps); k++ {
			if !slices.Contains(closedCuts(ix.deps), cuts[k]) {
				return false
			}
			if !end && min(refA, refB) < cuts[k] {
				return true
			}
			onCut(cuts[k], ix.FrameBit(cuts[k]))
		}
		return k < len(cuts)
	})
	return k, err
}

// indexGOPs is the scan. more, when non-nil, is called after each coded
// frame with the reference chain, and once more with end set after the
// last frame; the scan stops when it returns false.
func indexGOPs(stream []byte, onFrame func(coded int) error, more func(ix *GOPIndex, refA, refB int, end bool) bool) (*GOPIndex, error) {
	r := NewBitReader(stream)
	seq, err := ParseSeqHeader(r)
	if err != nil {
		return nil, err
	}
	// A frame header is 34 bits: a forged frame count sizes nothing but
	// the bitset of display indices seen, at most 8 KiB.
	n := min(seq.Frames, len(stream)/4)
	ix := &GOPIndex{Seq: seq, frameBit: make([]int, 0, n), deps: make([]frameDep, 0, n)}
	seen := make([]uint64, (seq.Frames+63)/64)
	refA, refB := -1, -1 // reference chain over display indices
	var mvp MVPredictor
	var tok TokenMB // arena reused across every macroblock of the scan
	for fi := 0; fi < seq.Frames; fi++ {
		if onFrame != nil {
			if err := onFrame(fi); err != nil {
				return nil, err
			}
		}
		ix.frameBit = append(ix.frameBit, r.BitPos())
		hdr, err := ParseFrameHdr(r)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", fi, err)
		}
		if hdr.Type != FrameI && refB < 0 {
			return nil, fmt.Errorf("frame %d: %w: %v frame before first reference", fi, ErrBitstream, hdr.Type)
		}
		if hdr.Type == FrameB && refA < 0 {
			return nil, fmt.Errorf("frame %d: %w: B frame with a single reference", fi, ErrBitstream)
		}
		if err := frameFits(r, &seq, hdr.Type); err != nil {
			return nil, fmt.Errorf("frame %d: %w", fi, err)
		}
		// Entropy-only frame body walk: the macroblock layer is
		// variable-length, so finding the next frame header requires the
		// full syntax parse — but none of the reconstruction. The display
		// index is checked after the body, where the streaming decoder
		// checks it, so that a frame with both faults fails as it does.
		for mby := 0; mby < seq.MBRows; mby++ {
			mvp.RowStart()
			for mbx := 0; mbx < seq.MBCols; mbx++ {
				if _, err := ParseMBSyntaxInto(r, hdr.Type, &mvp, &tok); err != nil {
					return nil, fmt.Errorf("frame %d: mb (%d,%d): %w", fi, mbx, mby, err)
				}
			}
		}
		di := int(hdr.TRef)
		if di >= seq.Frames {
			return nil, fmt.Errorf("frame %d: %w: display index %d out of range [0,%d)", fi, ErrBitstream, di, seq.Frames)
		}
		if seen[di/64]&(1<<(di%64)) != 0 {
			return nil, fmt.Errorf("frame %d: %w: duplicate display index %d", fi, ErrBitstream, di)
		}
		seen[di/64] |= 1 << (di % 64)
		d := frameDep{tref: di, fwd: -1, bwd: -1}
		switch hdr.Type {
		case FrameP:
			d.fwd = refB
		case FrameB:
			d.fwd, d.bwd = refA, refB
		}
		ix.deps = append(ix.deps, d)
		if hdr.Type != FrameB {
			refA, refB = refB, di
		}
		if more != nil && !more(ix, refA, refB, false) {
			return ix, nil
		}
	}
	if more != nil {
		more(ix, refA, refB, true)
	}
	return ix, nil
}

// EncodeClosedCuts returns the closed cut positions of the GOP structure
// an encoder produces for n display frames with the given parameters:
// the positions where a segment encoder can start with an empty
// reference chain and still produce the bits a single whole-sequence
// encoder would. Computed by the same prefix/suffix dependency analysis
// as the decode side, over a simulated reference chain in coded order.
func EncodeClosedCuts(n, gopN, gopM int) []int {
	types := GOPTypes(n, gopN, gopM)
	order := CodedOrder(types)
	deps := make([]frameDep, n)
	refA, refB := -1, -1
	for c, di := range order {
		d := frameDep{tref: di, fwd: -1, bwd: -1}
		switch types[di] {
		case FrameP:
			d.fwd = refB
		case FrameB:
			d.fwd, d.bwd = refA, refB
		}
		deps[c] = d
		if types[di] != FrameB {
			refA, refB = refB, di
		}
	}
	return closedCuts(deps)
}

// closedCuts computes the closed cut positions of a coded-order
// dependency sequence: positions c with prefixMaxTref(c-1) == c-1 and
// suffix dependency minimum >= c.
func closedCuts(deps []frameDep) []int {
	n := len(deps)
	if n == 0 {
		return nil
	}
	// sufMin[c]: minimum display index that any coded frame in [c, n)
	// touches (its own tref or either reference).
	sufMin := make([]int, n+1)
	sufMin[n] = n
	for c := n - 1; c >= 0; c-- {
		m := deps[c].tref
		if f := deps[c].fwd; f >= 0 && f < m {
			m = f
		}
		if b := deps[c].bwd; b >= 0 && b < m {
			m = b
		}
		if sufMin[c+1] < m {
			m = sufMin[c+1]
		}
		sufMin[c] = m
	}
	var cuts []int
	prefixMax := -1
	for c := 1; c < n; c++ {
		if t := deps[c-1].tref; t > prefixMax {
			prefixMax = t
		}
		if prefixMax == c-1 && sufMin[c] >= c {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// PartitionSegments splits the display range [0, n) into at most k
// spans, cutting only at the given closed cut positions (ascending,
// within (0, n)) and aiming for balanced span lengths. Always returns at
// least one span; returns fewer than k when too few cuts exist.
func PartitionSegments(n, k int, cuts []int) [][2]int {
	spans := [][2]int{}
	prev := 0
	if k > 1 && len(cuts) > 0 {
		ci := 0
		for i := 1; i < k; i++ {
			target := i * n / k
			for ci < len(cuts) && cuts[ci] <= prev {
				ci++
			}
			if ci >= len(cuts) {
				break
			}
			// cuts ascend, so distance to target decreases then increases:
			// take the last cut that improves on its predecessor.
			best := ci
			for j := ci + 1; j < len(cuts); j++ {
				if absInt(cuts[j]-target) <= absInt(cuts[best]-target) {
					best = j
				} else {
					break
				}
			}
			spans = append(spans, [2]int{prev, cuts[best]})
			prev = cuts[best]
			ci = best + 1
		}
	}
	return append(spans, [2]int{prev, n})
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
