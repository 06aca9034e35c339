package media

import (
	"bytes"
	"sync"
	"testing"
)

// TestStreamEncoderBitIdentical proves the push-based encoder emits the
// exact bytes of the batch encoder for B-frame GOPs (reordering) and
// IPPP GOPs (no reordering), including the half-pel mode.
func TestStreamEncoderBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		frames int
		mut    func(*CodecConfig)
	}{
		{"ibbp", 10, func(c *CodecConfig) {}},
		{"ippp", 7, func(c *CodecConfig) { c.GOPM = 1 }},
		{"halfpel", 9, func(c *CodecConfig) { c.HalfPel = true }},
		{"single", 1, func(c *CodecConfig) {}},
		{"tail-b-promoted", 6, func(c *CodecConfig) { c.GOPN = 12; c.GOPM = 3 }},
		{"deep-reorder", 13, func(c *CodecConfig) { c.GOPN = 10; c.GOPM = 5 }},
		{"gop-m4-halfpel", 11, func(c *CodecConfig) { c.GOPN = 8; c.GOPM = 4; c.HalfPel = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := DefaultSource(96, 80)
			src.Seed = 11
			frames := NewSource(src).Frames(tc.frames)
			cfg := DefaultCodec(96, 80)
			tc.mut(&cfg)

			want, _, wantStats, err := Encode(cfg, frames)
			if err != nil {
				t.Fatal(err)
			}
			se, err := NewStreamEncoder(cfg, len(frames))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range frames {
				if err := se.Push(f); err != nil {
					t.Fatal(err)
				}
			}
			got, gotStats, err := se.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stream encoder bitstream differs: %d vs %d bytes", len(got), len(want))
			}
			if gotStats.TotalBits() != wantStats.TotalBits() {
				t.Fatalf("stats differ: %d vs %d bits", gotStats.TotalBits(), wantStats.TotalBits())
			}
		})
	}
}

// TestStreamEncoderWorkers checks that N = 1..5 StreamEncoders run
// concurrently over the same read-only source frames each emit the batch
// encoder's bytes; the name is from the per-macroblock-row encode worker
// pool, since deleted. Under the race detector (`make race` runs it at
// GOMAXPROCS=4) it proves encoders share no mutable state, which is what
// lets the serving tier run many encodes side by side.
func TestStreamEncoderWorkers(t *testing.T) {
	src := DefaultSource(96, 80)
	src.Seed = 11
	frames := NewSource(src).Frames(9)
	cfg := DefaultCodec(96, 80)
	cfg.HalfPel = true
	want, _, _, err := Encode(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 5; n++ {
		got := make([][]byte, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				se, err := NewStreamEncoder(cfg, len(frames))
				if err != nil {
					errs[i] = err
					return
				}
				for _, f := range frames {
					if err := se.Push(f); err != nil {
						errs[i] = err
						return
					}
				}
				got[i], _, errs[i] = se.Close()
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("n=%d, encoder %d: %v", n, i, errs[i])
			}
			if !bytes.Equal(got[i], want) {
				t.Fatalf("n=%d, encoder %d: bitstream differs from batch encoder", n, i)
			}
		}
	}
}

// TestStreamEncoderAbort checks that aborting mid-stream recycles every
// frame buffered in the reorder ring exactly once and nothing else.
func TestStreamEncoderAbort(t *testing.T) {
	cfg := DefaultCodec(96, 80)
	cfg.GOPN = 9
	cfg.GOPM = 3
	src := DefaultSource(96, 80)
	src.Seed = 3
	frames := NewSource(src).Frames(8)

	for stopAt := 1; stopAt <= len(frames); stopAt++ {
		recycled := map[*Frame]int{}
		se, err := NewStreamEncoder(cfg, len(frames))
		if err != nil {
			t.Fatal(err)
		}
		se.Recycle = func(f *Frame) { recycled[f]++ }
		for i := 0; i < stopAt; i++ {
			if err := se.Push(frames[i]); err != nil {
				t.Fatal(err)
			}
		}
		se.Abort()
		se.Abort() // idempotent
		for f, n := range recycled {
			if n != 1 {
				t.Errorf("stopAt=%d: frame %p recycled %d times", stopAt, f, n)
			}
		}
		// Every pushed frame is recycled exactly once: either when coded
		// (Push drains the ring) or by Abort for the still-pending ones.
		total := 0
		for _, n := range recycled {
			total += n
		}
		if total != stopAt {
			t.Errorf("stopAt=%d: %d recycles, want %d", stopAt, total, stopAt)
		}
		if err := se.Push(frames[0]); err == nil {
			t.Errorf("stopAt=%d: Push after Abort should fail", stopAt)
		}
	}
}

// TestStreamEncoderMisuse covers the declared-count contract.
func TestStreamEncoderMisuse(t *testing.T) {
	cfg := DefaultCodec(32, 32)
	frames := NewSource(DefaultSource(32, 32)).Frames(3)

	se, err := NewStreamEncoder(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Push(frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := se.Close(); err == nil {
		t.Fatal("Close after 1 of 2 frames should fail")
	}

	se, _ = NewStreamEncoder(cfg, 2)
	se.Push(frames[0])
	se.Push(frames[1])
	if err := se.Push(frames[2]); err == nil {
		t.Fatal("Push beyond the declared count should fail")
	}

	if _, err := NewStreamEncoder(cfg, 0); err == nil {
		t.Fatal("zero declared frames should fail")
	}

	se, _ = NewStreamEncoder(cfg, 1)
	if err := se.Push(NewFrame(64, 32)); err == nil {
		t.Fatal("wrong-size frame should fail")
	}
}

// TestSyncFramePool checks reuse, the retention bound, and zeroing.
func TestSyncFramePool(t *testing.T) {
	p := NewSyncFramePool(2)
	a := p.Get(32, 32)
	a.Pix[0] = 99
	b := p.Get(32, 32)
	p.Put(a)
	p.Put(b)
	p.Put(p.Get(32, 32)) // at bound: third Put drops
	if got := p.Retained(); got != 2 {
		t.Fatalf("retained %d frames, want 2 (bound)", got)
	}
	c := p.Get(32, 32)
	if c.Pix[0] != 0 {
		t.Fatal("pooled frame not zeroed on Get")
	}
	if d := p.Get(16, 16); d == nil || d.W != 16 {
		t.Fatal("size-mismatched Get must allocate fresh")
	}
	p.Put(nil) // no-op
	p.PutAll([]*Frame{nil, c})
}

// TestSyncFramePoolOutstanding checks the leak-detection counter: Gets
// minus Puts, unaffected by the retention bound or size classes.
func TestSyncFramePoolOutstanding(t *testing.T) {
	p := NewSyncFramePool(1)
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("fresh pool outstanding = %d, want 0", got)
	}
	a, b := p.Get(32, 32), p.Get(16, 16)
	if got := p.Outstanding(); got != 2 {
		t.Fatalf("outstanding = %d after 2 Gets, want 2", got)
	}
	p.Put(a)
	p.Put(b) // beyond retention bound: dropped, but still accounted
	p.Put(nil)
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after returning all, want 0", got)
	}
}

// TestSyncFramePoolDoublePut checks the free-list corruption guard: a
// second Put of a resident frame must be a counted no-op — without it,
// the frame would sit on the free list twice and two later Gets would
// hand the same *Frame to two owners.
func TestSyncFramePoolDoublePut(t *testing.T) {
	p := NewSyncFramePool(8)
	a := p.Get(32, 32)
	p.Put(a)
	p.Put(a) // caller bug: released a frame it no longer owns
	if got := p.DoublePuts(); got != 1 {
		t.Fatalf("DoublePuts = %d, want 1", got)
	}
	if got := p.Retained(); got != 1 {
		t.Fatalf("retained %d frames after double Put, want 1", got)
	}
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d, want 0 (duplicate Put must not double-decrement)", got)
	}
	// The two next Gets must be distinct frames (the corruption the
	// guard prevents: one pooled, one fresh).
	b, c := p.Get(32, 32), p.Get(32, 32)
	if b == c {
		t.Fatal("double Put corrupted the free list: same frame handed out twice")
	}
	// Once re-issued, the frame can be Put again without tripping the
	// guard — it only flags Puts of currently-resident frames.
	p.Put(b)
	p.Put(c)
	if got := p.DoublePuts(); got != 1 {
		t.Fatalf("DoublePuts = %d after legitimate reuse, want still 1", got)
	}
}
