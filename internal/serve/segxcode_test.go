package serve

// Transcode coverage: byte-identity against the batch re-encode and the
// two-phase reference for every span count and clip width, concurrent
// one-span transcodes sharing a frame pool, the one-span conditions, the spans × O(GOP) in-flight bound,
// lifecycle (cancel / preempt / bad input) leak checks at one span and at
// several, the parity fuzzers, and the benchmark the bounded-memory
// claim is measured with.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"eclipse/internal/media"
)

// newTranscodeJobTwoPhase is the test-only reference implementation:
// fully decode into pooled display-order frames, then re-encode as a
// single checkpointed task. It shares no code path with the span units
// past the codec itself, so it is the independent oracle the parity
// tests and the parity fuzzers check the span engine against, and the
// O(frames) baseline BenchmarkTranscode measures it against.
func newTranscodeJobTwoPhase(ctx context.Context, tenant string, stream []byte, q int, pool *media.SyncFramePool) (*Job, error) {
	seq, err := media.ParseSeqHeader(media.NewBitReader(stream))
	if err != nil {
		return nil, err
	}
	cfg := TranscodeConfig(seq, q)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	body := func(ctx context.Context, gate *Gate) (Result, error) {
		// Phase 1: decode into pooled display-order frames. A batch
		// decode leaves a display hole where the span engine's streaming
		// decode rejects the frame that breaks the order.
		res, err := media.DecodeWithOptions(stream, media.DecodeOptions{
			NewFrame: pool.Get,
			Recycle:  pool.Put,
			OnFrame:  func(int) error { return checkpoint(ctx, gate) },
		})
		if err != nil {
			return Result{}, err
		}
		frames := res.DisplayFrames()
		for i, f := range frames {
			if f == nil {
				for _, df := range res.Coded {
					pool.Put(df.Frame)
				}
				return Result{}, fmt.Errorf("%w: no frame for display index %d", media.ErrBitstream, i)
			}
		}
		// Phase 2: re-encode as a single checkpointed task under the same
		// gate, recycling each source frame once coded.
		var out []byte
		var stats *media.EncodeStats
		err = runTask(ctx, gate, "enc", func(checkpoint func() error) error {
			se, err := media.NewStreamEncoder(cfg, len(frames))
			if err != nil {
				return err
			}
			se.Recycle = pool.Put
			for i, f := range frames {
				if err := checkpoint(); err != nil {
					se.Abort() // recycle frames buffered in the reorder window
					return err
				}
				frames[i] = nil // ownership moves to the encoder
				if err := se.Push(f); err != nil {
					pool.Put(f)
					se.Abort()
					return err
				}
			}
			out, stats, err = se.Close()
			return err
		})
		if err != nil {
			pool.PutAll(frames) // frames not yet handed to the encoder
			return Result{}, err
		}
		meta := seqMeta(seq, seq.Frames)
		meta["X-Seq-Q"] = strconv.Itoa(q)
		meta["X-Seq-Bits"] = strconv.Itoa(stats.TotalBits())
		return Result{Body: out, Meta: meta}, nil
	}
	return NewJob(tenant, KindTranscode, ctx, body), nil
}

// xcodeSched builds a scheduler that runs jobs without interference:
// one worker, a slice long enough that nothing preempts.
func xcodeSched(t testing.TB) *Scheduler {
	s := NewScheduler(Config{Workers: 1, BaseSlice: time.Minute, QueueCap: 64}, NewMetrics())
	t.Cleanup(func() { s.Drain(context.Background()) })
	return s
}

func runSync(t testing.TB, s *Scheduler, j *Job) (Result, error) {
	t.Helper()
	if err := s.Submit(j); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-j.Done()
	return j.Result()
}

// segClip returns a 64×48 clip whose GOP structure has interior closed
// cuts: N=13, M=3 satisfies (N-1)%M == 0, so every GOP boundary is
// decode- and encode-closed (see media.EncodeClosedCuts).
func segClip(t *testing.T, frames int) ([]byte, media.CodecConfig) {
	return segClipW(t, 64, frames)
}

// segClipW is segClip at width w.
func segClipW(t *testing.T, w, frames int) ([]byte, media.CodecConfig) {
	t.Helper()
	stream, cfg, _ := testStream(t, w, 48, frames, func(c *media.CodecConfig) {
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

// spanCounts are the segment fan-outs the lifecycle tests run at: one
// span (no index scan) and several over segClip's closed cuts.
var spanCounts = []int{1, 4}

func spansName(segs int) string { return "spans-" + strconv.Itoa(segs) }

// TestTranscodeFusedParity checks one-span transcodes against the
// two-phase job and the offline re-encode; the name is from the fused
// two-task transcode pipeline, since deleted. It sweeps clip widths of
// 1..8 macroblocks (the decoded width, dwN) × M = 1..4 identical one-span
// transcodes — decode and encode in a single task — run concurrently over
// one frame pool on an M-worker scheduler (ewM). Every output must be
// byte-identical to the two-phase job and the offline batch re-encode,
// and the shared pool must drain.
func TestTranscodeFusedParity(t *testing.T) {
	const q = 9
	ref := xcodeSched(t)
	for dw := 1; dw <= 8; dw++ {
		stream, _, _ := testStream(t, 16*dw, 48, 9, func(c *media.CodecConfig) {
			c.GOPM = 3
			c.HalfPel = true
		})
		want := batchTranscode(t, stream, q)
		tj, err := newTranscodeJobTwoPhase(context.Background(), "t", stream, q, media.NewSyncFramePool(64))
		if err != nil {
			t.Fatal(err)
		}
		if two, err := runSync(t, ref, tj); err != nil || !bytes.Equal(two.Body, want) {
			t.Fatalf("dw%d: two-phase output differs from batch reference (err %v)", dw, err)
		}
		for m := 1; m <= 4; m++ {
			t.Run("dw"+strconv.Itoa(dw)+"-ew"+strconv.Itoa(m), func(t *testing.T) {
				s := NewScheduler(Config{Workers: m, BaseSlice: time.Minute, QueueCap: 64}, NewMetrics())
				defer s.Drain(context.Background())
				pool := media.NewSyncFramePool(64)
				jobs := make([]*Job, m)
				for i := range jobs {
					j, err := NewTranscodeJobSegmented(context.Background(), "t", stream, q, pool, 1, 1, 1, NewMetrics())
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Submit(j); err != nil {
						t.Fatal(err)
					}
					jobs[i] = j
				}
				for i, j := range jobs {
					<-j.Done()
					res, err := j.Result()
					if err != nil {
						t.Fatalf("job %d: %v", i, err)
					}
					if !bytes.Equal(res.Body, want) {
						t.Errorf("job %d: one-span output differs from batch reference (%d vs %d bytes)", i, len(res.Body), len(want))
					}
					if res.Meta["X-Transcode-Peak-Frames"] == "" {
						t.Errorf("job %d: result missing X-Transcode-Peak-Frames", i)
					}
				}
				if n := pool.Outstanding(); n != 0 {
					t.Errorf("pool leak: %d frames outstanding", n)
				}
			})
		}
	}
}

// TestTranscodeSegmentedParity sweeps segments 1..8 × clips 1 and 4
// macroblocks wide (dwN) with interior closed-GOP cuts and requires
// every configuration's output to be byte-identical to the batch
// reference, with the pool drained and the segment-count header
// truthful.
func TestTranscodeSegmentedParity(t *testing.T) {
	const frames, q = 39, 9
	s := xcodeSched(t)
	clips, wants := map[int][]byte{}, map[int][]byte{}
	for _, dw := range []int{1, 4} {
		clips[dw], _ = segClipW(t, 16*dw, frames)
		wants[dw] = batchTranscode(t, clips[dw], q)
	}
	for segs := 1; segs <= 8; segs++ {
		for _, dw := range []int{1, 4} {
			stream, want := clips[dw], wants[dw]
			t.Run("k"+strconv.Itoa(segs)+"-dw"+strconv.Itoa(dw), func(t *testing.T) {
				pool := media.NewSyncFramePool(128)
				met := NewMetrics()
				j, err := NewTranscodeJobSegmented(context.Background(), "t", stream, q, pool, 1, 1, segs, met)
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

// TestTranscodeSegmentedFallback checks the three one-span conditions —
// segments <= 1, a clip shorter than segMinFrames, and an open-GOP clip
// with no interior closed cut — all report X-Transcode-Segments: 1,
// leave the segment counters alone, and still match the batch
// reference.
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
			j, err := NewTranscodeJobSegmented(context.Background(), "t", tc.stream, q, pool, 1, 1, tc.segs, met)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runSync(t, s, j)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Body, want) {
				t.Errorf("one-span output differs from batch reference (%d vs %d bytes)", len(res.Body), len(want))
			}
			if got := res.Meta["X-Transcode-Segments"]; got != "1" {
				t.Errorf("X-Transcode-Segments = %q, want 1", got)
			}
			if met.XcodeSegJobs.Load() != 0 {
				t.Errorf("a one-span job incremented XcodeSegJobs")
			}
			if n := pool.Outstanding(); n != 0 {
				t.Errorf("pool leak: %d frames outstanding", n)
			}
		})
	}
}

// TestTranscodeSegmentedBoundedInflight runs a long clip as one span and
// as several and asserts the peak in-flight frame count stays under
// spans × (GOPM + 4): each span unit holds at most its decoder's two
// references and the frame it is decoding, and its encoder's reorder
// ring (GOPM+1) — the spans × O(GOP) memory claim, far below the clip
// length.
func TestTranscodeSegmentedBoundedInflight(t *testing.T) {
	const frames = 78
	stream, cfg := segClip(t, frames)
	s := xcodeSched(t)
	for _, segs := range spanCounts {
		t.Run(spansName(segs), func(t *testing.T) {
			pool := media.NewSyncFramePool(256)
			met := NewMetrics()
			j, err := NewTranscodeJobSegmented(context.Background(), "t", stream, 9, pool, 1, 1, segs, met)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runSync(t, s, j)
			if err != nil {
				t.Fatal(err)
			}
			nseg, err := strconv.Atoi(res.Meta["X-Transcode-Segments"])
			if err != nil || (segs == 1) != (nseg == 1) {
				t.Fatalf("segments=%d ran X-Transcode-Segments=%q", segs, res.Meta["X-Transcode-Segments"])
			}
			peak, err := strconv.Atoi(res.Meta["X-Transcode-Peak-Frames"])
			if err != nil {
				t.Fatalf("bad X-Transcode-Peak-Frames %q", res.Meta["X-Transcode-Peak-Frames"])
			}
			bound := nseg * (cfg.GOPM + 4)
			if peak <= 0 || peak > bound {
				t.Errorf("peak in-flight frames = %d, want 0 < peak <= %d (%d spans × (%d+4))", peak, bound, nseg, cfg.GOPM)
			}
			if got := met.XcodePeakFrames.Load(); got != int64(peak) {
				t.Errorf("metrics peak %d != job peak %d", got, peak)
			}
		})
	}
}

// TestTranscodeFusedCancelNoLeak checks that one-span transcodes
// cancelled mid-span or after completion leak nothing; the name is from
// the fused two-task transcode pipeline, since deleted. See
// checkCancelNoLeak.
func TestTranscodeFusedCancelNoLeak(t *testing.T) { checkCancelNoLeak(t, 1) }

// TestTranscodeSegmentedCancelNoLeak is the same check at several spans,
// where the cancel can also land during the indexing pass.
func TestTranscodeSegmentedCancelNoLeak(t *testing.T) { checkCancelNoLeak(t, 4) }

// checkCancelNoLeak cancels a transcode run at segs spans after each of
// five delays and requires every pooled frame back on every unwind path
// and any failure to be the cancellation.
func checkCancelNoLeak(t *testing.T, segs int) {
	stream, _ := segClip(t, 39)
	s := xcodeSched(t)
	for _, delay := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond,
		8 * time.Millisecond, 20 * time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			pool := media.NewSyncFramePool(256)
			j, err := NewTranscodeJobSegmented(context.Background(), "t", stream, 9, pool, 1, 1, segs, NewMetrics())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
			select {
			case <-j.Done():
			case <-time.After(delay):
			}
			j.cancel()
			<-j.Done()
			// Whether the cancel landed mid-flight or after completion,
			// every frame must be back in the pool.
			if n := pool.Outstanding(); n != 0 {
				t.Fatalf("%s: pool leak after cancel at %v: %d frames outstanding", spansName(segs), delay, n)
			}
			if _, err := j.Result(); err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: unexpected error class: %v", spansName(segs), err)
			}
		})
	}
}

// TestTranscodeSegmentedPreemptParity runs the job under a 1ms slice so
// the scheduler preempts every span unit at frame boundaries repeatedly,
// at one span and at several; output must stay byte-identical and the
// pool must drain.
func TestTranscodeSegmentedPreemptParity(t *testing.T) {
	const q = 9
	stream, _ := segClip(t, 39)
	want := batchTranscode(t, stream, q)
	s := NewScheduler(Config{Workers: 1, BaseSlice: time.Millisecond, QueueCap: 8}, NewMetrics())
	defer s.Drain(context.Background())
	for _, segs := range spanCounts {
		t.Run(spansName(segs), func(t *testing.T) {
			pool := media.NewSyncFramePool(256)
			j, err := NewTranscodeJobSegmented(context.Background(), "t", stream, q, pool, 1, 1, segs, NewMetrics())
			if err != nil {
				t.Fatal(err)
			}
			res, err := runSync(t, s, j)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Body, want) {
				t.Errorf("preempted output differs from reference (%d vs %d bytes)", len(res.Body), len(want))
			}
			if j.Preempts() == 0 {
				t.Log("no preemptions observed (machine too fast for the 1ms slice); parity still checked")
			}
			if n := pool.Outstanding(); n != 0 {
				t.Errorf("pool leak after preempted run: %d frames outstanding", n)
			}
		})
	}
}

// TestTranscodeFusedBadStream checks that a one-span transcode of a
// bitstream truncated mid-frame fails in the span decode; the name is
// from the fused two-task transcode pipeline, since deleted. See
// checkBadStream.
func TestTranscodeFusedBadStream(t *testing.T) { checkBadStream(t, 1) }

// TestTranscodeSegmentedBadStream is the same check at several spans,
// where the job must fail in the indexing pass before any pixel work.
func TestTranscodeSegmentedBadStream(t *testing.T) { checkBadStream(t, 4) }

// checkBadStream runs a bitstream truncated mid-frame at segs spans: the
// job must fail with ErrBitstream (for the 400 mapping) and nothing may
// leak.
func checkBadStream(t *testing.T, segs int) {
	stream, _ := segClip(t, 39)
	bad := stream[:len(stream)*2/3]
	s := xcodeSched(t)
	pool := media.NewSyncFramePool(64)
	j, err := NewTranscodeJobSegmented(context.Background(), "t", bad, 9, pool, 1, 1, segs, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSync(t, s, j); !errors.Is(err, media.ErrBitstream) {
		t.Errorf("%s: truncated stream gave %v, want ErrBitstream", spansName(segs), err)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Errorf("%s: pool leak on bad stream: %d frames outstanding", spansName(segs), n)
	}
}

// FuzzTranscodeFusedParity spends the whole fuzzing budget on the
// one-span transcode — the path no rig workload runs — over clip shape,
// GOP structure and quantizer; see checkTranscodeParity.
func FuzzTranscodeFusedParity(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(6), uint8(9), uint8(12), uint8(3), false, int64(7))
	f.Add(uint8(2), uint8(1), uint8(9), uint8(12), uint8(6), uint8(1), true, int64(1))
	f.Add(uint8(1), uint8(2), uint8(4), uint8(20), uint8(8), uint8(4), true, int64(3))
	f.Fuzz(func(t *testing.T, wmb, hmb, frames, q, gopn, gopm uint8, halfPel bool, seed int64) {
		checkTranscodeParity(t, wmb, hmb, frames, q, gopn, gopm, halfPel, seed, 0)
	})
}

// FuzzTranscodeSegmentedParity fuzzes the same inputs plus span count
// 1..8; see checkTranscodeParity.
func FuzzTranscodeSegmentedParity(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(30), uint8(9), uint8(13), uint8(3), true, int64(7), uint8(4))
	f.Add(uint8(2), uint8(1), uint8(26), uint8(6), uint8(13), uint8(1), false, int64(1), uint8(8))
	f.Add(uint8(1), uint8(2), uint8(12), uint8(4), uint8(12), uint8(3), true, int64(3), uint8(2))
	f.Fuzz(checkTranscodeParity)
}

// checkTranscodeParity encodes the fuzzed clip, transcodes it at
// 1+segs%8 spans, and requires the output to match the
// two-phase reference byte for byte (whether the clip split into spans
// or ran as one), with a drained pool every time.
func checkTranscodeParity(t *testing.T, wmb, hmb, frames, q, gopn, gopm uint8, halfPel bool, seed int64, segs uint8) {
	w := 16 * (1 + int(wmb)%4)
	h := 16 * (1 + int(hmb)%4)
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
	sj, err := NewTranscodeJobSegmented(context.Background(), "t", stream, xq, pool, 1, 1, 1+int(segs)%8, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSync(t, s, sj)
	if err != nil {
		t.Fatal(err)
	}
	tj, err := newTranscodeJobTwoPhase(context.Background(), "t", stream, xq, pool)
	if err != nil {
		t.Fatal(err)
	}
	two, err := runSync(t, s, tj)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, two.Body) {
		t.Fatalf("%s-span and two-phase outputs differ (%d vs %d bytes)",
			got.Meta["X-Transcode-Segments"], len(got.Body), len(two.Body))
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("pool leak: %d frames outstanding", n)
	}
}

// benchClip encodes the QCIF clip BenchmarkTranscode runs: long enough
// that O(frames) vs O(GOP M) in-flight memory is visible in bytes/op.
func benchClip(b *testing.B, frames int, mut func(*media.CodecConfig)) []byte {
	src := media.DefaultSource(176, 144)
	src.Seed = 1
	fr := media.NewSource(src).Frames(frames)
	cfg := media.DefaultCodec(176, 144)
	cfg.GOPM = 3
	if mut != nil {
		mut(&cfg)
	}
	stream, _, _, err := media.Encode(cfg, fr)
	if err != nil {
		b.Fatal(err)
	}
	return stream
}

// BenchmarkTranscode measures the span engine at one span (a 24-frame
// N=12 M=3 clip) and at two (a 26-frame N=13 M=3 clip, the rig's
// closed-GOP shape) against the two-phase reference on the first clip,
// each on its own scheduler and pool: wall time per op, allocated bytes
// per op, and (span engine) the peak in-flight frame gauge.
func BenchmarkTranscode(b *testing.B) {
	const q = 9
	oneSpan := benchClip(b, 24, nil)
	closed := benchClip(b, 26, func(c *media.CodecConfig) { c.GOPN = 13 })
	for _, bc := range []struct {
		name   string
		stream []byte
		segs   int
	}{
		{"spans-1", oneSpan, 1},
		{"spans-2", closed, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := xcodeSched(b)
			pool := media.NewSyncFramePool(64)
			met := NewMetrics()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, err := NewTranscodeJobSegmented(context.Background(), "t", bc.stream, q, pool, 1, 1, bc.segs, met)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := runSync(b, s, j); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(met.XcodePeakFrames.Load()), "peak-frames")
		})
	}
	b.Run("two-phase", func(b *testing.B) {
		s := xcodeSched(b)
		pool := media.NewSyncFramePool(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j, err := newTranscodeJobTwoPhase(context.Background(), "t", oneSpan, q, pool)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := runSync(b, s, j); err != nil {
				b.Fatal(err)
			}
		}
	})
}
