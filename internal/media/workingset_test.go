package media

import (
	"runtime"
	"testing"
)

// Steady-state allocation pins for the codec's per-frame working set:
// the decoder keeps no per-macroblock state on the heap, a span encoder never
// reconstructs a B frame and reconstructs an I or P frame into the
// reference that frame drops.

// allocsOf counts the heap allocations of one call of f, the way
// testing.AllocsPerRun counts them (on one processor), but for a single
// call of a stateful step such as decoding or pushing the next frame,
// which AllocsPerRun's warm-up call and averaged repeats cannot pin to an
// exact per-frame count.
func allocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestDecodeFrameAllocs decodes the Fig. 10 stream frame by frame with
// pooled reconstruction frames: the first three coded frames allocate
// their frames while the pool is still empty (a frame is two
// allocations, header and pixels), and every later frame nothing.
func TestDecodeFrameAllocs(t *testing.T) {
	stream := goldenStream(t)
	r := NewBitReader(stream)
	seq, err := ParseSeqHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewFramePool()
	var refs RefChain
	want := []uint64{2, 2, 2} // then 0
	for fi := 0; fi < seq.Frames; fi++ {
		hdr, err := ParseFrameHdr(r)
		if err != nil {
			t.Fatal(err)
		}
		var f *Frame
		n := allocsOf(func() { f, err = decodeFrameBody(r, &seq, hdr, &refs, pool.Get, pool.Put) })
		if err != nil {
			t.Fatalf("frame %d: %v", fi, err)
		}
		if w := wantAt(want, fi); n != w {
			t.Errorf("coded frame %d (%v): %d allocs, want %d", fi, hdr.Type, n, w)
		}
		if hdr.Type == FrameB {
			pool.Put(f)
			continue
		}
		dropped := refs.A
		refs.Advance(f, hdr.Type)
		pool.Put(dropped)
	}
}

// TestStreamEncoderPushAllocs pushes an N=12 M=3 sequence into a span
// encoder whose writer has room for the whole output. Only the pushes
// that code the first two references allocate, one reconstruction frame
// (header and pixels) each; every B push (buffered, or coded without a
// reconstruction) and every later I or P push (reconstructed into the
// dropped reference) allocates nothing.
func TestStreamEncoderPushAllocs(t *testing.T) {
	const n = 27
	src := DefaultSource(96, 80)
	src.Seed = 5
	frames := NewSource(src).Frames(n)
	cfg := DefaultCodec(96, 80)
	cfg.GOPN, cfg.GOPM = 12, 3
	want, _, _, err := Encode(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewStreamEncoderSegment(cfg, n, 0, n, 2*len(want))
	if err != nil {
		t.Fatal(err)
	}
	types := GOPTypes(n, cfg.GOPN, cfg.GOPM)
	wantAllocs := []uint64{2, 0, 0, 2} // display 0 codes I0, display 3 codes P3; then 0
	for i, f := range frames {
		got := allocsOf(func() { err = se.Push(f) })
		if err != nil {
			t.Fatal(err)
		}
		if w := wantAt(wantAllocs, i); got != w {
			t.Errorf("push %d (%v): %d allocs, want %d", i, types[i], got, w)
		}
	}
	out, _, err := se.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(want) {
		t.Fatal("stream encoder output differs from Encode")
	}
}

// wantAt reads a pinned per-step count; steps past the list pin 0.
func wantAt(want []uint64, i int) uint64 {
	if i < len(want) {
		return want[i]
	}
	return 0
}
