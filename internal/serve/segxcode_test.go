package serve

// Segment-parallel transcode coverage: byte-identity against the fused
// pipeline and the batch reference for every segment count, fallback
// behaviour on clips without usable cuts, the K×O(GOP) in-flight bound,
// lifecycle (cancel / preempt) leak checks, and the parity fuzzer.

import (
	"bytes"
	"context"
	"strconv"
	"testing"
	"time"

	"eclipse/internal/media"
)

// segClip returns a clip whose GOP structure has interior closed cuts:
// N=13, M=3 satisfies (N-1)%M == 0, so every GOP boundary is decode-
// and encode-closed (see media.EncodeClosedCuts).
func segClip(t *testing.T, frames int) ([]byte, media.CodecConfig) {
	t.Helper()
	stream, cfg, _ := testStream(t, 64, 48, frames, func(c *media.CodecConfig) {
		c.GOPN = 13
		c.GOPM = 3
		c.HalfPel = true
	})
	return stream, cfg
}

// batchTranscode computes the offline reference output.
func batchTranscode(t *testing.T, stream []byte, q int) []byte {
	t.Helper()
	ref, err := media.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := media.Encode(TranscodeConfig(ref.Seq, q), ref.DisplayFrames())
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTranscodeSegmentedParity sweeps segments 1..8 × decode workers
// {1,4} on a clip with interior closed-GOP cuts and requires every
// configuration's output to be byte-identical to the batch reference,
// with the pool drained and the segment-count header truthful.
func TestTranscodeSegmentedParity(t *testing.T) {
	const frames, q = 39, 9
	stream, _ := segClip(t, frames)
	want := batchTranscode(t, stream, q)
	s := xcodeSched(t)
	for segs := 1; segs <= 8; segs++ {
		for _, dw := range []int{1, 4} {
			t.Run("k"+strconv.Itoa(segs)+"-dw"+strconv.Itoa(dw), func(t *testing.T) {
				pool := media.NewSyncFramePool(128)
				met := NewMetrics()
				j, err := NewTranscodeJobSegmented(context.Background(), "t", stream, q, pool, dw, 2, segs, met)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runSync(t, s, j)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(res.Body, want) {
					t.Errorf("segmented output (k=%d) differs from batch reference (%d vs %d bytes)", segs, len(res.Body), len(want))
				}
				got, err := strconv.Atoi(res.Meta["X-Transcode-Segments"])
				if err != nil || got < 1 || got > segs {
					t.Errorf("X-Transcode-Segments = %q, want 1..%d", res.Meta["X-Transcode-Segments"], segs)
				}
				if segs >= 2 && got >= 2 {
					if met.XcodeSegJobs.Load() != 1 {
						t.Errorf("XcodeSegJobs = %d, want 1", met.XcodeSegJobs.Load())
					}
					if int(met.XcodeSegments.Load()) != got {
						t.Errorf("XcodeSegments = %d, want %d", met.XcodeSegments.Load(), got)
					}
					if int(met.XcodeStitchBytes.Load()) != len(res.Body) {
						t.Errorf("XcodeStitchBytes = %d, want %d", met.XcodeStitchBytes.Load(), len(res.Body))
					}
				}
				if n := pool.Outstanding(); n != 0 {
					t.Errorf("pool leak: %d frames outstanding", n)
				}
			})
		}
	}
}

// TestTranscodeSegmentedFallback checks the three fallback conditions —
// segments <= 1, a clip shorter than segMinFrames, and an open-GOP clip
// with no interior closed cut — all serve the fused pipeline, report
// X-Transcode-Segments: 1, and still match the batch reference.
func TestTranscodeSegmentedFallback(t *testing.T) {
	const q = 9
	short, _ := segClip(t, segMinFrames-1)
	// The codec default N=12, M=3 has (N-1)%M != 0: every GOP boundary
	// is preceded by B frames coded after the next I — no closed cuts.
	open, _, _ := testStream(t, 64, 48, 36, func(c *media.CodecConfig) { c.GOPM = 3 })
	long, _ := segClip(t, 39)
	s := xcodeSched(t)
	for _, tc := range []struct {
		name   string
		stream []byte
		segs   int
	}{
		{"segments-1", long, 1},
		{"short-clip", short, 4},
		{"open-gop", open, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := batchTranscode(t, tc.stream, q)
			pool := media.NewSyncFramePool(128)
			met := NewMetrics()
			j, err := NewTranscodeJobSegmented(context.Background(), "t", tc.stream, q, pool, 4, 2, tc.segs, met)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runSync(t, s, j)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Body, want) {
				t.Errorf("fallback output differs from batch reference (%d vs %d bytes)", len(res.Body), len(want))
			}
			if got := res.Meta["X-Transcode-Segments"]; got != "1" {
				t.Errorf("X-Transcode-Segments = %q, want 1", got)
			}
			if met.XcodeSegJobs.Load() != 0 {
				t.Errorf("fallback incremented XcodeSegJobs")
			}
			if n := pool.Outstanding(); n != 0 {
				t.Errorf("pool leak: %d frames outstanding", n)
			}
		})
	}
}

// TestTranscodeSegmentedBoundedInflight runs a long clip at K=4 and
// asserts the peak in-flight frame count stays under K × (2·GOPM + 6):
// each segment pipeline holds at most its parser window (GOPM+2), its
// encoder reorder ring (GOPM+1), and small constant slack — the
// segmented engine's K×O(GOP) memory claim, far below the clip length.
func TestTranscodeSegmentedBoundedInflight(t *testing.T) {
	const frames, segs = 78, 4
	stream, cfg := segClip(t, frames)
	pool := media.NewSyncFramePool(256)
	met := NewMetrics()
	s := xcodeSched(t)
	j, err := NewTranscodeJobSegmented(context.Background(), "t", stream, 9, pool, 2, 2, segs, met)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSync(t, s, j)
	if err != nil {
		t.Fatal(err)
	}
	nseg, err := strconv.Atoi(res.Meta["X-Transcode-Segments"])
	if err != nil || nseg < 2 {
		t.Fatalf("expected a segmented run, got X-Transcode-Segments=%q", res.Meta["X-Transcode-Segments"])
	}
	peak, err := strconv.Atoi(res.Meta["X-Transcode-Peak-Frames"])
	if err != nil {
		t.Fatalf("bad X-Transcode-Peak-Frames %q", res.Meta["X-Transcode-Peak-Frames"])
	}
	bound := nseg * (2*cfg.GOPM + 6)
	if peak <= 0 || peak > bound {
		t.Errorf("peak in-flight frames = %d, want 0 < peak <= %d (K=%d × (2·%d+6))", peak, bound, nseg, cfg.GOPM)
	}
	if peak >= frames {
		t.Errorf("peak %d reached the clip length %d; segmentation regressed to batch memory", peak, frames)
	}
}

// TestTranscodeSegmentedCancelNoLeak cancels segmented transcodes at a
// spread of points — during indexing, mid-segments, after completion —
// and requires every pooled frame back on every unwind path.
func TestTranscodeSegmentedCancelNoLeak(t *testing.T) {
	stream, _ := segClip(t, 39)
	s := xcodeSched(t)
	for _, delay := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond,
		8 * time.Millisecond, 20 * time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			pool := media.NewSyncFramePool(256)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			j, err := NewTranscodeJobSegmented(ctx, "t", stream, 9, pool, 2, 2, 4, NewMetrics())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
			time.Sleep(delay)
			j.Cancel()
			<-j.Done()
			if n := pool.Outstanding(); n != 0 {
				t.Fatalf("pool leak after cancel at %v: %d frames outstanding", delay, n)
			}
		})
	}
}

// TestTranscodeSegmentedPreemptParity runs the segmented job under a
// 1ms slice so the scheduler preempts the whole K-segment network at
// frame boundaries repeatedly; output must stay byte-identical and the
// pool must drain.
func TestTranscodeSegmentedPreemptParity(t *testing.T) {
	const q = 9
	stream, _ := segClip(t, 39)
	want := batchTranscode(t, stream, q)
	s := NewScheduler(Config{Workers: 1, BaseSlice: time.Millisecond, QueueCap: 8}, NewMetrics())
	defer s.Drain(context.Background())
	pool := media.NewSyncFramePool(256)
	j, err := NewTranscodeJobSegmented(context.Background(), "t", stream, q, pool, 2, 2, 4, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSync(t, s, j)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want) {
		t.Errorf("preempted segmented output differs from reference (%d vs %d bytes)", len(res.Body), len(want))
	}
	if j.Preempts() == 0 {
		t.Log("no preemptions observed (machine too fast for the 1ms slice); parity still checked")
	}
	if n := pool.Outstanding(); n != 0 {
		t.Errorf("pool leak after preempted run: %d frames outstanding", n)
	}
}

// TestTranscodeSegmentedBadStream truncates the bitstream mid-frame:
// the indexing pass must reject it (ErrBitstream for the 400 mapping)
// before any pixel work, and nothing may leak.
func TestTranscodeSegmentedBadStream(t *testing.T) {
	stream, _ := segClip(t, 39)
	bad := stream[:len(stream)*2/3]
	s := xcodeSched(t)
	pool := media.NewSyncFramePool(64)
	j, err := NewTranscodeJobSegmented(context.Background(), "t", bad, 9, pool, 2, 2, 4, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSync(t, s, j); err == nil {
		t.Fatal("truncated stream transcoded successfully")
	}
	if n := pool.Outstanding(); n != 0 {
		t.Errorf("pool leak on bad stream: %d frames outstanding", n)
	}
}

// FuzzTranscodeSegmentedParity fuzzes clip shape, GOP structure,
// quantizer, worker counts, and segment fan-out, and requires the
// segmented engine's output to match the fused pipeline byte for byte
// (whether it segmented or fell back), with a drained pool every time.
func FuzzTranscodeSegmentedParity(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(30), uint8(9), uint8(13), uint8(3), true, int64(7), uint8(2), uint8(4))
	f.Add(uint8(2), uint8(1), uint8(26), uint8(6), uint8(13), uint8(1), false, int64(1), uint8(1), uint8(8))
	f.Add(uint8(1), uint8(2), uint8(12), uint8(4), uint8(12), uint8(3), true, int64(3), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, wmb, hmb, frames, q, gopn, gopm uint8, halfPel bool, seed int64, dw, segs uint8) {
		w := 16 * (1 + int(wmb)%3)
		h := 16 * (1 + int(hmb)%3)
		nf := 1 + int(frames)%40
		src := media.DefaultSource(w, h)
		src.Seed = seed
		fr := media.NewSource(src).Frames(nf)
		cfg := media.DefaultCodec(w, h)
		cfg.GOPN = 1 + int(gopn)%30
		cfg.GOPM = 1 + int(gopm)%15
		cfg.HalfPel = halfPel
		if cfg.Validate() != nil {
			return // e.g. GOPM > GOPN: not an encodable shape
		}
		stream, _, _, err := media.Encode(cfg, fr)
		if err != nil {
			t.Fatal(err)
		}
		xq := 1 + int(q)%30
		pool := media.NewSyncFramePool(256)
		s := xcodeSched(t)
		sj, err := NewTranscodeJobSegmented(context.Background(), "t", stream, xq, pool,
			1+int(dw)%4, 2, 1+int(segs)%8, NewMetrics())
		if err != nil {
			t.Fatal(err)
		}
		seg, err := runSync(t, s, sj)
		if err != nil {
			t.Fatal(err)
		}
		fj, err := NewTranscodeJobSegmented(context.Background(), "t", stream, xq, pool, 1+int(dw)%4, 2, 1, NewMetrics())
		if err != nil {
			t.Fatal(err)
		}
		fused, err := runSync(t, s, fj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seg.Body, fused.Body) {
			t.Fatalf("segmented (k=%s) and fused outputs differ (%d vs %d bytes)",
				seg.Meta["X-Transcode-Segments"], len(seg.Body), len(fused.Body))
		}
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("pool leak: %d frames outstanding", n)
		}
	})
}
