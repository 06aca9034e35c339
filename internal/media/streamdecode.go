package media

// Streaming decode delivery: display-order frame handoff while the
// decode is still running.
//
// When DecodeOptions.OnDisplayFrame is set, the decoder delivers each
// frame as soon as (a) it is decoded and (b) every earlier display index
// has already been delivered — so the consumer observes the exact
// display sequence incrementally instead of collecting everything
// through DisplayFramesInto at the end. Delivery does NOT transfer
// exclusive ownership: a delivered I or P frame can still be read by the
// decoder as a motion-compensation reference until the reference chain
// advances past it. The Retire hook marks the moment the decoder's
// interest ends; only after both delivery and retirement may the frame
// be recycled into a pool (pools zero pixels on Get, so recycling
// earlier would corrupt in-flight prediction).
//
// The streamSink below holds one slot per display index with a tiny
// monotone state machine (decoded → delivered, with chainDone/released
// tracked independently). The decoder drives it from its own goroutine,
// so the sink needs no lock.

import "fmt"

// streamSlot is one display index's delivery state.
type streamSlot struct {
	f         *Frame
	present   bool // frame decoded
	delivered bool // OnDisplayFrame fired
	chainDone bool // reference chain advanced past the frame
	released  bool // final Retire/Recycle issued
}

// streamSink coordinates display-order delivery for streaming decodes.
// It covers the display range [lo, hi): whole-stream decodes use
// [0, Frames), segment decodes a closed sub-range — display indices stay
// global throughout, only slot storage is rebased.
type streamSink struct {
	opts   *DecodeOptions
	lo, hi int          // display range [lo, hi)
	slot   []streamSlot // indexed by di - lo
	next   int          // next display index to deliver (global)
}

func newStreamSink(opts *DecodeOptions, lo, hi int) *streamSink {
	return &streamSink{opts: opts, lo: lo, hi: hi, slot: make([]streamSlot, hi-lo), next: lo}
}

// frameDecoded registers a decoded frame under its display index and
// validates the TRef bijection (in range, not yet used). Out-of-range
// or duplicate display indices are ErrBitstream: in the batch decoder
// they surface as nil display slots, but a streaming consumer has
// already acted on delivered frames, so the stream must be rejected at
// the frame that breaks the bijection instead.
func (k *streamSink) frameDecoded(di int, f *Frame, isRef bool) error {
	if di < k.lo || di >= k.hi {
		return fmt.Errorf("%w: display index %d out of range [%d,%d)", ErrBitstream, di, k.lo, k.hi)
	}
	s := &k.slot[di-k.lo]
	if s.present {
		return fmt.Errorf("%w: duplicate display index %d", ErrBitstream, di)
	}
	s.present = true
	s.f = f
	// B frames never become references: the decoder's interest ends the
	// moment the frame is decoded.
	s.chainDone = !isRef
	return nil
}

// retire fires Retire once the decoder's interest in a slot has fully
// ended: the frame was delivered and the reference chain moved past it.
func (k *streamSink) retire(s *streamSlot) {
	if !s.delivered || !s.chainDone || s.released {
		return
	}
	s.released = true
	if k.opts.Retire != nil {
		k.opts.Retire(s.f)
	}
}

// chainDrop records that the decoder's reference chain advanced past a
// frame, retiring it if it was already delivered.
func (k *streamSink) chainDrop(di int) {
	s := &k.slot[di-k.lo]
	s.chainDone = true
	k.retire(s)
}

// deliver fires OnDisplayFrame for every frame that is next in display
// order and decoded. Called after each decoded frame.
func (k *streamSink) deliver() error {
	for k.next < k.hi && k.slot[k.next-k.lo].present {
		s := &k.slot[k.next-k.lo]
		if err := k.opts.OnDisplayFrame(k.next, s.f); err != nil {
			return err
		}
		s.delivered = true
		k.next++
		k.retire(s)
	}
	return nil
}

// cleanup releases every frame the decode still holds: Retire for
// delivered frames (the consumer's stake survives; the decoder's ends
// here) and Recycle for frames that were never delivered (the consumer
// never saw them, so the decoder is the sole owner).
func (k *streamSink) cleanup() {
	for i := range k.slot {
		s := &k.slot[i]
		if !s.present || s.released {
			continue
		}
		s.released = true
		if s.delivered {
			if k.opts.Retire != nil {
				k.opts.Retire(s.f)
			}
		} else if k.opts.Recycle != nil {
			k.opts.Recycle(s.f)
		}
	}
}
