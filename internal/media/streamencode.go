package media

import (
	"fmt"
	"slices"
)

// StreamEncoder is a push-based incremental encoder: callers feed frames
// one at a time in display order and receive the coded bitstream at
// Close. It reorders internally (buffering B frames until their backward
// reference arrives) and drives the exact same per-frame encoding path
// as Encode, so for the same configuration and frames the bitstream is
// bit-identical to Encode's — the contract the serving path's
// correctness checks rely on.
//
// The total frame count must be declared up front (the sequence header
// carries it, and the GOP structure depends on it).
type StreamEncoder struct {
	// Recycle, when non-nil, is called with each source frame as soon as
	// the encoder is done reading it (its macroblocks are coded and it
	// will never be referenced again) — the hook a serving path uses to
	// return request frames to a shared pool. Abort also routes the
	// still-buffered frames through it.
	Recycle func(*Frame)

	enc    *Encoder
	types  []FrameType // whole-sequence frame types, indexed by display index
	order  []int       // coded order restricted to this encoder's range (global display indices)
	lo     int         // first display index this encoder covers
	count  int         // frames this encoder covers ([lo, lo+count))
	pushed int         // frames received so far (display order)
	coded  int         // prefix of order already encoded
	// Reorder window: pending frames indexed (di-lo) % len(ring). The
	// display indices simultaneously buffered span at most GOPM
	// consecutive values (a run of B frames plus the reference that
	// releases them), so GOPM+1 slots can never collide; ringDi guards
	// the invariant.
	ring   []*Frame
	ringDi []int // display index occupying each slot; -1 = empty
	closed bool
}

// NewStreamEncoder validates the configuration and prepares an encoder
// for exactly `frames` pushes: the one span covering the whole sequence.
func NewStreamEncoder(cfg CodecConfig, frames int) (*StreamEncoder, error) {
	return NewStreamEncoderSegment(cfg, frames, 0, frames)
}

// NewStreamEncoderSegment prepares an encoder for display frames
// [lo, hi) of a totalFrames-frame sequence: the span transcoder runs one
// per span and splices their CloseRaw outputs with StitchSegments. The
// span starting at display 0 writes the sequence header; every later
// span is headerless. lo and hi must be encode-closed cuts of the
// whole-sequence GOP structure (EncodeClosedCuts; 0 and totalFrames
// always qualify) — closure is what makes the global coded order
// restricted to [lo, hi) contiguous and the span's reference chain
// self-contained, so the spliced bits match a single whole-sequence
// encode exactly. Frame types and TRefs are taken from the *global*
// structure (including the last-frame B→P promotion), never recomputed
// per span.
func NewStreamEncoderSegment(cfg CodecConfig, totalFrames, lo, hi int) (*StreamEncoder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if totalFrames <= 0 || totalFrames > 0xFFFF {
		return nil, fmt.Errorf("media: frame count %d out of range", totalFrames)
	}
	if lo < 0 || hi > totalFrames || lo >= hi {
		return nil, fmt.Errorf("media: segment [%d,%d) out of range [0,%d)", lo, hi, totalFrames)
	}
	for _, c := range [2]int{lo, hi} {
		if c != 0 && c != totalFrames && !slices.Contains(EncodeClosedCuts(totalFrames, cfg.GOPN, cfg.GOPM), c) {
			return nil, fmt.Errorf("media: %d is not an encode-closed cut for N=%d M=%d", c, cfg.GOPN, cfg.GOPM)
		}
	}
	types := GOPTypes(totalFrames, cfg.GOPN, cfg.GOPM)
	e := &StreamEncoder{
		enc:   newEncoder(cfg, totalFrames, lo == 0),
		types: types,
		order: CodedOrder(types)[lo:hi],
		lo:    lo,
		count: hi - lo,
	}
	e.initRing(cfg.GOPM)
	return e, nil
}

func (e *StreamEncoder) initRing(gopM int) {
	window := gopM + 1
	if window > e.count {
		window = e.count
	}
	e.ring = make([]*Frame, window)
	e.ringDi = make([]int, window)
	for i := range e.ringDi {
		e.ringDi[i] = -1
	}
}

// Push feeds the next display-order frame. Frames whose references are
// not yet complete are buffered; everything codeable is coded eagerly,
// so peak buffering is bounded by the GOP's M parameter.
func (e *StreamEncoder) Push(f *Frame) error {
	if e.closed {
		return fmt.Errorf("media: push on closed StreamEncoder")
	}
	if e.pushed >= e.count {
		return fmt.Errorf("media: more than the declared %d frames pushed", e.count)
	}
	if f.W != e.enc.cfg.W || f.H != e.enc.cfg.H {
		return fmt.Errorf("media: frame %d is %dx%d, want %dx%d", e.pushed, f.W, f.H, e.enc.cfg.W, e.enc.cfg.H)
	}
	di := e.lo + e.pushed
	slot := e.pushed % len(e.ring)
	if e.ringDi[slot] != -1 {
		return fmt.Errorf("media: internal reorder window overflow at frame %d", e.pushed)
	}
	e.ring[slot] = f
	e.ringDi[slot] = di
	e.pushed++
	// Encode the coded-order prefix that is now available.
	for e.coded < len(e.order) {
		di := e.order[e.coded]
		s := (di - e.lo) % len(e.ring)
		if e.ringDi[s] != di {
			break // not pushed yet
		}
		src := e.ring[s]
		e.ring[s] = nil
		e.ringDi[s] = -1
		e.enc.encodeFrame(src, e.types[di], di)
		e.coded++
		if e.Recycle != nil {
			e.Recycle(src)
		}
	}
	return nil
}

// Close finalizes the stream after all declared frames were pushed and
// returns the bitstream and the per-frame statistics.
func (e *StreamEncoder) Close() ([]byte, *EncodeStats, error) {
	w, stats, err := e.CloseRaw()
	if err != nil {
		return nil, nil, err
	}
	return w.Bytes(), stats, nil
}

// CloseRaw finalizes like Close but returns the underlying bit writer
// without byte-aligning it. For span encoders this is the stitchable
// artifact: the span's frames as an unaligned bit run (behind the
// sequence header for the span at display 0) that StitchSegments splices
// at exact bit positions. The writer must not be written to further
// except by StitchSegments.
func (e *StreamEncoder) CloseRaw() (*BitWriter, *EncodeStats, error) {
	if e.closed {
		return nil, nil, fmt.Errorf("media: StreamEncoder closed twice")
	}
	e.closed = true
	if e.pushed != e.count {
		return nil, nil, fmt.Errorf("media: closed after %d of %d declared frames", e.pushed, e.count)
	}
	if e.coded != len(e.order) {
		return nil, nil, fmt.Errorf("media: internal reorder stall at coded frame %d", e.coded)
	}
	return e.enc.w, &e.enc.stats, nil
}

// StitchSegments assembles the final bitstream from span writers
// (CloseRaw results) in span order: parts[0], the span starting at
// display 0 and so the one carrying the sequence header, receives every
// later span's headerless bits appended in place at the bit level, and
// is byte-aligned exactly once at the very end. Because per-frame
// entropy state resets at every frame (the MV predictor restarts per
// macroblock row, and no DC or VLC state crosses frames), a frame's
// encoded bits are independent of its bit position, so the result is
// bit-identical to a single-writer encode of the whole sequence. With
// one part it is that part's bytes.
func StitchSegments(parts []*BitWriter) []byte {
	w := parts[0]
	for _, p := range parts[1:] {
		w.AppendBits(p)
	}
	return w.Bytes()
}

// Abort abandons the stream mid-flight: every frame still buffered in
// the reorder window is handed to Recycle and further Push/Close calls
// fail. The hook error-unwinding paths use so pooled frames pushed but
// not yet coded are not leaked. No-op on an already closed or aborted
// encoder.
func (e *StreamEncoder) Abort() {
	if e.closed {
		return
	}
	e.closed = true
	for i, f := range e.ring {
		if f == nil {
			continue
		}
		e.ring[i] = nil
		e.ringDi[i] = -1
		if e.Recycle != nil {
			e.Recycle(f)
		}
	}
}
