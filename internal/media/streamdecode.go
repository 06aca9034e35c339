package media

// Streaming decode delivery: display-order frame handoff while the
// decode is still running.
//
// When DecodeOptions.OnDisplayFrame is set, the decoder delivers each
// frame as soon as (a) it is decoded and (b) every earlier display index
// has already been delivered — so the consumer observes the exact
// display sequence incrementally instead of collecting everything
// through DisplayFrames at the end. Delivery does NOT transfer
// exclusive ownership: a delivered I or P frame can still be read by the
// decoder as a motion-compensation reference until the reference chain
// advances past it. The Retire hook marks the moment the decoder's
// interest ends; only after both delivery and retirement may the frame
// be recycled into a pool (pools zero pixels on Get, so recycling
// earlier would corrupt in-flight prediction).
//
// The streamSink below commits memory only as the stream proves it: a
// bitset of the declared display range (at most 8 KiB) rejects
// duplicates, and state is kept only for frames the decoder has not yet
// retired, so a header that declares 65 535 frames costs nothing per
// frame it does not carry. The decoder drives the sink from its own
// goroutine, so it needs no lock.

import "fmt"

// heldFrame is a decoded frame under its display index.
type heldFrame struct {
	di int
	f  *Frame
}

// streamSink coordinates display-order delivery for streaming decodes.
// It covers the display range [lo, hi): whole-stream decodes use
// [0, Frames), segment decodes a closed sub-range; display indices stay
// global throughout. A frame is delivered once every earlier index has
// been (so the frames delivered are exactly those below next), and
// retired once it is delivered and out of the reference chain.
type streamSink struct {
	opts    *DecodeOptions
	lo, hi  int          // display range [lo, hi)
	next    int          // next display index to deliver (global)
	seen    []uint64     // display indices decoded, bit di-lo
	pending []heldFrame  // decoded, not yet delivered: a min-heap on di
	chain   [2]heldFrame // the decoder's references, older first; f nil while empty
}

func newStreamSink(opts *DecodeOptions, lo, hi int) *streamSink {
	return &streamSink{opts: opts, lo: lo, hi: hi, next: lo, seen: make([]uint64, (hi-lo+63)/64)}
}

// frameDecoded registers a decoded frame under its display index and
// validates the TRef bijection (in range, not yet used). Out-of-range
// or duplicate display indices are ErrBitstream: in the batch decoder
// they surface as nil display slots, but a streaming consumer has
// already acted on delivered frames, so the stream must be rejected at
// the frame that breaks the bijection instead. A reference frame
// advances the chain, retiring the reference it pushes out if that one
// was already delivered; B frames never become references, so the
// decoder's interest in one ends the moment it is decoded.
func (k *streamSink) frameDecoded(di int, f *Frame, isRef bool) error {
	if di < k.lo || di >= k.hi {
		return fmt.Errorf("%w: display index %d out of range [%d,%d)", ErrBitstream, di, k.lo, k.hi)
	}
	i := di - k.lo
	if k.seen[i/64]&(1<<(i%64)) != 0 {
		return fmt.Errorf("%w: duplicate display index %d", ErrBitstream, di)
	}
	k.seen[i/64] |= 1 << (i % 64)
	k.push(heldFrame{di, f})
	if isRef {
		if old := k.chain[0]; old.f != nil && old.di < k.next {
			k.retire(old.f)
		}
		k.chain[0], k.chain[1] = k.chain[1], heldFrame{di, f}
	}
	return nil
}

// retire ends the decoder's interest in a delivered frame.
func (k *streamSink) retire(f *Frame) {
	if k.opts.Retire != nil {
		k.opts.Retire(f)
	}
}

// deliver fires OnDisplayFrame for every frame that is next in display
// order and decoded, retiring each one the chain no longer holds.
// Called after each decoded frame. A frame whose delivery fails stays
// pending, so cleanup recycles it.
func (k *streamSink) deliver() error {
	for len(k.pending) > 0 && k.pending[0].di == k.next {
		h := k.pending[0]
		if err := k.opts.OnDisplayFrame(h.di, h.f); err != nil {
			return err
		}
		k.pop()
		k.next++
		if h.f != k.chain[0].f && h.f != k.chain[1].f {
			k.retire(h.f)
		}
	}
	return nil
}

// cleanup releases every frame the decode still holds: Recycle for
// frames that were never delivered (the consumer never saw them, so the
// decoder is the sole owner) and Retire for delivered references still
// in the chain (the consumer's stake survives; the decoder's ends here).
func (k *streamSink) cleanup() {
	for _, h := range k.pending {
		if k.opts.Recycle != nil {
			k.opts.Recycle(h.f)
		}
	}
	for _, h := range k.chain {
		if h.f != nil && h.di < k.next {
			k.retire(h.f)
		}
	}
	k.pending, k.chain = k.pending[:0], [2]heldFrame{}
}

// push adds h to the pending heap.
func (k *streamSink) push(h heldFrame) {
	k.pending = append(k.pending, h)
	p := k.pending
	for i := len(p) - 1; i > 0; {
		up := (i - 1) / 2
		if p[up].di <= p[i].di {
			break
		}
		p[up], p[i] = p[i], p[up]
		i = up
	}
}

// pop removes the pending heap's least display index.
func (k *streamSink) pop() {
	p := k.pending
	n := len(p) - 1
	p[0] = p[n]
	p = p[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && p[c+1].di < p[c].di {
			c++
		}
		if p[i].di <= p[c].di {
			break
		}
		p[i], p[c] = p[c], p[i]
		i = c
	}
	k.pending = p
}
