package media

// Streaming decode delivery: display-order frame handoff while the
// decode is still running.
//
// When DecodeOptions.OnDisplayFrame is set, the decoder delivers each
// frame as soon as (a) its last macroblock row is reconstructed and
// (b) every earlier display index has already been delivered — so the
// consumer observes the exact display sequence incrementally instead of
// collecting everything through DisplayFramesInto at the end. Delivery
// does NOT transfer exclusive ownership: a delivered I or P frame can
// still be read by the decoder as a motion-compensation reference until
// the reference chain advances past it. The Retire hook marks the
// moment the decoder's interest ends; only after both delivery and
// retirement may the frame be recycled into a pool (pools zero pixels
// on Get, so recycling earlier would corrupt in-flight prediction).
//
// The streamSink below is the single piece of state shared by the
// parser, the reconstruction workers, and the delivery goroutine. Each
// display index owns one slot with a tiny monotone state machine
// (parsed → complete → delivered, with chainDone/released tracked
// independently), all transitions under one mutex. The serial decoder
// reuses the same slots but delivers inline on the calling goroutine —
// no extra goroutine, no lookahead window — so serial and parallel
// streaming decodes observe identical delivery sequences and errors.

import (
	"fmt"
	"sync"
)

// streamSlot is one display index's delivery state.
type streamSlot struct {
	f         *Frame
	present   bool // header parsed, frame allocated
	complete  bool // every macroblock row reconstructed
	delivered bool // OnDisplayFrame fired
	chainDone bool // parser's reference window advanced past the frame
	readers   int  // dependent frames still reconstructing from this one
	released  bool // final Retire/Recycle issued
}

// retirable reports whether the decoder's interest in a slot has fully
// ended: the frame was delivered, the parser's reference window moved
// past it, AND no in-flight reconstruction still reads it. chainDone
// alone is not enough — the parser evicts a reference as soon as it
// parses the next one, while row batches of earlier B frames may still
// be motion-compensating from it on the workers.
func (s *streamSlot) retirable() bool {
	return s.delivered && s.chainDone && s.readers == 0 && !s.released
}

// streamSink coordinates display-order delivery for streaming decodes.
// It covers the display range [lo, hi): whole-stream decodes use
// [0, Frames), segment decodes a closed sub-range — display indices stay
// global throughout, only slot storage is rebased.
type streamSink struct {
	opts   *DecodeOptions
	lo, hi int // display range [lo, hi)
	window int // parser lookahead over delivery, in coded frames (0 = unbounded)

	mu   sync.Mutex
	cond sync.Cond
	slot []streamSlot // indexed by di - lo
	next int          // next display index to deliver (global)
	err  error        // sticky abort: first callback/parse error
	join sync.WaitGroup
}

func newStreamSink(opts *DecodeOptions, lo, hi, window int) *streamSink {
	k := &streamSink{opts: opts, lo: lo, hi: hi, window: window,
		slot: make([]streamSlot, hi-lo), next: lo}
	k.cond.L = &k.mu
	return k
}

// frameParsed registers a parsed frame under its display index and
// validates the TRef bijection (in range, not yet used). Out-of-range
// or duplicate display indices are ErrBitstream: in the batch decoder
// they surface as nil display slots, but a streaming consumer has
// already acted on delivered frames, so the stream must be rejected at
// the parse point instead.
func (k *streamSink) frameParsed(di int, f *Frame, isRef bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
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
	// moment the frame is reconstructed.
	s.chainDone = !isRef
	return nil
}

// addReader registers a dependent frame that will reconstruct from the
// reference at display index di. Called on the parser goroutine when
// the dependent is parsed — strictly before the reference's chainDrop
// (every dependent of a reference is parsed before the frame that
// evicts it), so a slot with chainDone set can never gain new readers.
func (k *streamSink) addReader(di int) {
	k.mu.Lock()
	k.slot[di-k.lo].readers++
	k.mu.Unlock()
}

// frameComplete marks a frame fully reconstructed, drops its reader
// stake on the references it was predicted from (fwdDi/bwdDi, -1 for
// none), and wakes the delivery side. Reader stakes released here may
// make a reference retirable; any due Retires fire on this goroutine.
func (k *streamSink) frameComplete(di, fwdDi, bwdDi int) {
	var retire []*Frame
	k.mu.Lock()
	k.slot[di-k.lo].complete = true
	for _, rdi := range [2]int{fwdDi, bwdDi} {
		if rdi < 0 {
			continue
		}
		s := &k.slot[rdi-k.lo]
		s.readers--
		if s.retirable() {
			s.released = true
			retire = append(retire, s.f)
		}
	}
	k.mu.Unlock()
	k.cond.Broadcast()
	if k.opts.Retire != nil {
		for _, f := range retire {
			k.opts.Retire(f)
		}
	}
}

// chainDrop records that the decoder's reference chain advanced past a
// frame. Retire fires here (the parser goroutine) only if the frame was
// already delivered and no reconstruction still reads it; otherwise the
// delivery side or the last reader's frameComplete fires it.
func (k *streamSink) chainDrop(di int) {
	k.mu.Lock()
	s := &k.slot[di-k.lo]
	s.chainDone = true
	retire := s.retirable()
	if retire {
		s.released = true
	}
	f := s.f
	k.mu.Unlock()
	if retire && k.opts.Retire != nil {
		k.opts.Retire(f)
	}
}

// markDelivered advances the delivery cursor past di and reports
// whether the decoder's interest has also ended (→ caller fires Retire).
func (k *streamSink) markDelivered(di int) (f *Frame, retire bool) {
	k.mu.Lock()
	s := &k.slot[di-k.lo]
	s.delivered = true
	k.next = di + 1
	retire = s.retirable()
	if retire {
		s.released = true
	}
	f = s.f
	k.mu.Unlock()
	k.cond.Broadcast()
	return f, retire
}

// fail records the first abort cause and wakes every waiter. Idempotent.
func (k *streamSink) fail(err error) {
	k.mu.Lock()
	if k.err == nil {
		k.err = err
	}
	k.mu.Unlock()
	k.cond.Broadcast()
}

// waitWindow blocks the parser until coded frame fi is within `window`
// coded positions of the delivery cursor, bounding how far parse-side
// memory can run ahead of the consumer. Deadlock-free for any window
// >= 2: delivering display index d requires only coded positions
// <= d+1 (the display prefix {0..d} occupies coded positions {0..d+1},
// at most one pending reference ahead). Returns the sticky abort error,
// if any.
func (k *streamSink) waitWindow(fi int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	for k.err == nil && fi >= k.next+k.window {
		k.cond.Wait()
	}
	return k.err
}

// waitDelivered blocks until every frame was delivered or the sink
// aborted, and returns the abort cause.
func (k *streamSink) waitDelivered() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	for k.err == nil && k.next < k.hi {
		k.cond.Wait()
	}
	return k.err
}

// run is the parallel decoder's delivery goroutine: it walks the
// display order, waiting for each next frame to complete, and fires
// OnDisplayFrame outside the sink lock (the callback may block on the
// consumer for arbitrarily long — e.g. a synchronous re-encode).
func (k *streamSink) run() {
	defer k.join.Done()
	for {
		k.mu.Lock()
		for k.err == nil && k.next < k.hi &&
			!(k.slot[k.next-k.lo].present && k.slot[k.next-k.lo].complete) {
			k.cond.Wait()
		}
		if k.err != nil || k.next >= k.hi {
			k.mu.Unlock()
			return
		}
		di := k.next
		f := k.slot[di-k.lo].f
		k.mu.Unlock()
		if err := k.opts.OnDisplayFrame(di, f); err != nil {
			k.fail(err)
			return
		}
		if f, retire := k.markDelivered(di); retire && k.opts.Retire != nil {
			k.opts.Retire(f)
		}
	}
}

// deliverInline is the serial decoder's delivery step: fire every ready
// delivery on the calling goroutine. Called after each decoded frame.
func (k *streamSink) deliverInline() error {
	for {
		k.mu.Lock()
		if k.err != nil {
			err := k.err
			k.mu.Unlock()
			return err
		}
		if k.next >= k.hi || !k.slot[k.next-k.lo].present || !k.slot[k.next-k.lo].complete {
			k.mu.Unlock()
			return nil
		}
		di := k.next
		f := k.slot[di-k.lo].f
		k.mu.Unlock()
		if err := k.opts.OnDisplayFrame(di, f); err != nil {
			k.fail(err)
			return err
		}
		if f, retire := k.markDelivered(di); retire && k.opts.Retire != nil {
			k.opts.Retire(f)
		}
	}
}

// cleanup releases every frame the decode still holds: Retire for
// delivered frames (the consumer's stake survives; the decoder's ends
// here) and Recycle for frames that were never delivered (the consumer
// never saw them, so the decoder is the sole owner). Callers must have
// joined the delivery goroutine first — after that the sink is
// single-threaded, but the lock is cheap and keeps the invariants
// checkable, so hold it anyway.
func (k *streamSink) cleanup() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for di := range k.slot {
		s := &k.slot[di]
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
