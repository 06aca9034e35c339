package media

// Guards for the one decoder. The oracle: for ANY stream (valid,
// truncated, corrupted), batch and streaming DecodeWithOptions agree —
// the same error text, or identical display frames — and neither leaks
// or double-frees a pooled frame, even while other decodes share the
// pool. Plus the hook lifecycle, DisplayFramesInto, and the allocation
// pin of a whole reference decode.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// parityStreams builds a family of streams covering every prediction
// mode: IBBP with half-pel motion, IPPP full-pel, a single-MB clip, and
// the canonical Fig. 10 GOP.
func parityStreams(t testing.TB) map[string][]byte {
	t.Helper()
	build := func(w, h, frames, gopM, q int, halfPel bool) []byte {
		src := DefaultSource(w, h)
		clip := NewSource(src).Frames(frames)
		cfg := DefaultCodec(w, h)
		cfg.Q = q
		cfg.GOPM = gopM
		cfg.HalfPel = halfPel
		stream, _, _, err := Encode(cfg, clip)
		if err != nil {
			t.Fatalf("encode %dx%d: %v", w, h, err)
		}
		return stream
	}
	return map[string][]byte{
		"fig10-ibbp":  goldenStream(t),
		"halfpel":     build(64, 48, 8, 3, 4, true),
		"ippp":        build(48, 32, 6, 1, 8, false),
		"single-mb":   build(16, 16, 3, 1, 6, false),
		"tall-motion": build(32, 96, 7, 3, 3, true),
	}
}

// displayReject reports whether err is the streaming decoder's own
// rejection: a display index that breaks the bijection with [0, Frames),
// which only streaming checks as it goes.
func displayReject(err error) bool {
	return errors.Is(err, ErrBitstream) && strings.Contains(err.Error(), "display index")
}

// decodeBoth decodes stream in batch mode and in streaming mode in
// parallel, on two goroutines sharing one frame pool the way two serving
// workers do, so a frame either decode recycled too early would be
// zeroed under the other. It asserts the one decoder's oracle:
//   - a batch reject gives a streaming reject with the same error text,
//     or an earlier display-index reject;
//   - a streaming display-index reject of a stream batch accepts means
//     batch DisplayFrames has a nil slot, and a nil slot means streaming
//     rejects;
//   - a streaming accept gives a batch accept with identical headers and
//     display frames;
//   - the pool ends with nothing outstanding and no double Put.
func decodeBoth(t *testing.T, stream []byte) {
	t.Helper()
	pool := NewSyncFramePool(64)
	var (
		shown      []*Frame
		sres       *DecodeResult
		serr       error
		streamDone = make(chan struct{})
	)
	go func() {
		defer close(streamDone)
		sres, serr = DecodeWithOptions(stream, DecodeOptions{
			NewFrame: pool.Get,
			Recycle:  pool.Put,
			Retire:   pool.Put,
			OnDisplayFrame: func(di int, f *Frame) error {
				if di != len(shown) {
					return fmt.Errorf("delivered display index %d, want %d", di, len(shown))
				}
				shown = append(shown, f.Clone())
				return nil
			},
		})
	}()
	bres, berr := DecodeWithOptions(stream, DecodeOptions{NewFrame: pool.Get, Recycle: pool.Put})
	<-streamDone

	if (berr != nil && bres != nil) || (serr != nil && sres != nil) {
		t.Fatalf("non-nil result alongside error: batch %v, streaming %v", berr, serr)
	}
	var disp []*Frame
	if berr == nil {
		disp = bres.DisplayFrames()
	}
	hole := berr == nil && slices.Contains(disp, nil)
	switch {
	case serr == nil:
		if berr != nil || hole {
			t.Fatalf("streaming accepts; batch rejects (%v) or leaves a display hole (%v)", berr, hole)
		}
		if sres.Seq != bres.Seq || len(sres.Coded) != len(bres.Coded) || len(shown) != len(disp) {
			t.Fatalf("streaming result shape diverged from batch")
		}
		for i := range bres.Coded {
			if sres.Coded[i].Hdr != bres.Coded[i].Hdr {
				t.Fatalf("coded frame %d header diverged", i)
			}
		}
		for di := range disp {
			if !shown[di].Equal(disp[di]) {
				t.Fatalf("display frame %d pixels diverged", di)
			}
		}
	case displayReject(serr):
		if berr == nil && !hole {
			t.Fatalf("streaming rejects (%v); batch decodes a complete display order", serr)
		}
	case berr == nil || serr.Error() != berr.Error():
		t.Fatalf("error text diverged:\n  batch     %v\n  streaming %q", berr, serr)
	}
	if berr == nil {
		for _, df := range bres.Coded {
			pool.Put(df.Frame)
		}
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("pool leak: %d frames outstanding", n)
	}
	if n := pool.DoublePuts(); n != 0 {
		t.Fatalf("%d double Puts", n)
	}
}

// TestDecodeParallelParity checks that batch and streaming decodes agree
// on the valid stream family; the name is from the pipeline-parallel
// decoder, since deleted, that this oracle used to check.
func TestDecodeParallelParity(t *testing.T) {
	for name, stream := range parityStreams(t) {
		t.Run(name, func(t *testing.T) { decodeBoth(t, stream) })
	}
}

// TestDecodeParallelParityCorrupt checks that batch and streaming decodes
// agree, errors included, on malformed inputs; the name is from the
// pipeline-parallel decoder, since deleted. The inputs are dense
// truncation over a small stream, sparse truncation over the Fig. 10
// stream, and byte corruption (which trips run/level overflows, bad
// markers, reference-order violations and broken display indices
// mid-stream).
func TestDecodeParallelParityCorrupt(t *testing.T) {
	streams := parityStreams(t)
	small := streams["single-mb"]
	for cut := 0; cut <= len(small); cut++ {
		decodeBoth(t, small[:cut])
	}
	big := streams["fig10-ibbp"]
	for cut := 0; cut < len(big); cut += len(big)/61 + 1 {
		decodeBoth(t, big[:cut])
	}
	corrupt := make([]byte, len(small))
	for i := 0; i < len(small); i++ {
		copy(corrupt, small)
		corrupt[i] ^= 0xA5
		decodeBoth(t, corrupt)
	}
}

// FuzzDecodeParallelParity checks that batch and streaming decodes agree
// on arbitrary byte streams; the name is from the pipeline-parallel
// decoder, since deleted.
func FuzzDecodeParallelParity(f *testing.F) {
	streams := parityStreams(f)
	f.Add([]byte{})
	f.Add(streams["single-mb"])
	f.Add(streams["ippp"])
	f.Add(streams["halfpel"][:len(streams["halfpel"])/2])
	f.Add(streams["fig10-ibbp"][:512])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return // bound per-input work; coverage lives in the syntax, not the length
		}
		decodeBoth(t, data)
	})
}

// TestDecodeOptionsLifecycle pins the frame-ownership contract of the
// hooks: on success every created frame is returned and none recycled;
// on parse errors and OnFrame cancellation every created frame is
// recycled. workers=N runs N decodes at once over one shared frame pool,
// the way N serving workers do, so a frame one decode recycled while
// still using it would show up as wrong pixels in another.
func TestDecodeOptionsLifecycle(t *testing.T) {
	stream := parityStreams(t)["halfpel"]
	ref, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pool := NewSyncFramePool(0)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					checkLifecycle(t, stream, ref, pool)
				}()
			}
			wg.Wait()
			if n := pool.Outstanding(); n != 0 || pool.DoublePuts() != 0 {
				t.Errorf("pool: %d frames outstanding, %d double Puts", n, pool.DoublePuts())
			}
		})
	}
}

// checkLifecycle runs the three lifecycle paths of one decode over pool.
// It may run on any goroutine, so it reports with Errorf and returns.
func checkLifecycle(t *testing.T, stream []byte, ref *DecodeResult, pool *SyncFramePool) {
	counted := func() (*DecodeOptions, *int, *int) {
		created, recycled := new(int), new(int)
		return &DecodeOptions{
			NewFrame: func(w, h int) *Frame { *created++; return pool.Get(w, h) },
			Recycle:  func(f *Frame) { *recycled++; pool.Put(f) },
		}, created, recycled
	}

	opts, created, recycled := counted()
	res, err := DecodeWithOptions(stream, *opts)
	if err != nil {
		t.Errorf("decode: %v", err)
		return
	}
	if *created != len(res.Coded) || *recycled != 0 {
		t.Errorf("success path: created %d, recycled %d, returned %d", *created, *recycled, len(res.Coded))
	}
	for i, df := range res.Coded {
		if !df.Frame.Equal(ref.Coded[i].Frame) {
			t.Errorf("success path: frame %d pixels differ from the reference decode", i)
		}
		pool.Put(df.Frame)
	}

	opts, created, recycled = counted()
	if _, err := DecodeWithOptions(stream[:len(stream)*3/4], *opts); err == nil {
		t.Error("truncated stream decoded without error")
	}
	if *created == 0 || *created != *recycled {
		t.Errorf("error path: created %d but recycled %d", *created, *recycled)
	}

	opts, created, recycled = counted()
	cancel := errors.New("preempted")
	opts.OnFrame = func(coded int) error {
		if coded == 3 {
			return cancel
		}
		return nil
	}
	if _, err := DecodeWithOptions(stream, *opts); !errors.Is(err, cancel) {
		t.Errorf("cancellation returned %v, want %v", err, cancel)
	}
	if *created != 3 || *recycled != 3 {
		t.Errorf("cancel path: created %d, recycled %d, want 3/3", *created, *recycled)
	}
}

// TestDisplayFramesInto covers the caller-provided-slice variant: slice
// reuse without reallocation, clearing of stale entries, growth, and
// equivalence with DisplayFrames.
func TestDisplayFramesInto(t *testing.T) {
	res, err := Decode(parityStreams(t)["ippp"])
	if err != nil {
		t.Fatal(err)
	}
	want := res.DisplayFrames()

	scratch := make([]*Frame, 0, len(want)+4)
	got := res.DisplayFramesInto(scratch)
	if &got[0] != &scratch[:1][0] {
		t.Fatal("DisplayFramesInto reallocated despite sufficient capacity")
	}
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d differs from DisplayFrames", i)
		}
	}
	// Stale entries beyond this decode's frames must be cleared.
	stale := NewFrame(MBSize, MBSize)
	for i := range got {
		got[i] = stale
	}
	got = res.DisplayFramesInto(got)
	for i := range got {
		if got[i] == stale {
			t.Fatalf("entry %d not cleared before reuse", i)
		}
	}
	// Growth path: undersized slice is replaced, not written out of range.
	tiny := make([]*Frame, 1)
	grown := res.DisplayFramesInto(tiny)
	if len(grown) != len(want) {
		t.Fatalf("grown len %d, want %d", len(grown), len(want))
	}
	if n := testing.AllocsPerRun(100, func() { scratch = res.DisplayFramesInto(scratch) }); n != 0 {
		t.Fatalf("DisplayFramesInto allocates %.1f per call on a warm slice", n)
	}
}

// referenceDecodeAllocBudget bounds the bytes one Decode of the Fig. 10
// stream allocates: counted at 378 KiB/op (42 allocs) on the code that
// set it, the same at GOMAXPROCS 1, 2 and 4 and under -race, plus 5 %.
// At the parent of the change that made the decoder serial-only, Decode
// ran the pipeline-parallel decoder whenever GOMAXPROCS ≥ 2 and counted
// 648 KiB/op (141 allocs) at 2 and 864 KiB/op at 4, so this test fails
// there on any host with GOMAXPROCS ≥ 2.
const referenceDecodeAllocBudget = 397 << 10

// TestReferenceDecodeAllocBudget pins the allocation cost of the plain
// reference decode, which the simulator's verification and every offline
// reference check run.
func TestReferenceDecodeAllocBudget(t *testing.T) {
	stream := goldenStream(t)
	if _, err := Decode(stream); err != nil { // warm package-level tables
		t.Fatal(err)
	}
	const ops = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if _, err := Decode(stream); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / ops
	allocs := (after.Mallocs - before.Mallocs) / ops
	t.Logf("reference Fig. 10 decode: %d B/op, %d allocs/op (budget %d B)", perOp, allocs, referenceDecodeAllocBudget)
	if perOp > referenceDecodeAllocBudget {
		t.Errorf("reference Fig. 10 decode allocates %d B/op, budget %d", perOp, referenceDecodeAllocBudget)
	}
}
