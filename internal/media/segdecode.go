package media

import "fmt"

// DecodeSegment decodes coded frames [lo, hi) of a stream, starting at
// bit offset startBit — the GOPIndex.FrameBit of coded frame lo. The
// range must be bounded by closed cuts (IndexGOPs' guarantee): the
// segment then begins with an I frame, covers exactly display indices
// [lo, hi), and never references a frame outside the range, so it
// decodes with an empty initial reference chain, bit-identical to the
// same frames of a whole-stream decode.
//
// Streaming mode is required (opts.OnDisplayFrame must be set):
// delivered display indices are the global ones, and the returned
// result carries frame headers only. OnFrame checkpoints fire with
// global coded positions. All other DecodeOptions semantics match
// DecodeWithOptions.
func DecodeSegment(stream []byte, startBit, lo, hi int, opts DecodeOptions) (*DecodeResult, error) {
	if opts.OnDisplayFrame == nil {
		return nil, fmt.Errorf("media: DecodeSegment requires streaming mode (OnDisplayFrame)")
	}
	r := NewBitReader(stream)
	seq, err := ParseSeqHeader(r)
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > seq.Frames || lo >= hi {
		return nil, fmt.Errorf("media: segment [%d,%d) out of range [0,%d)", lo, hi, seq.Frames)
	}
	if startBit < r.BitPos() || startBit > len(stream)*8 {
		return nil, fmt.Errorf("media: segment start bit %d out of range", startBit)
	}
	r.Skip(uint(startBit - r.BitPos()))
	return decodeSpan(r, seq, lo, hi, &opts)
}
