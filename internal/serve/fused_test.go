package serve

// Fused streaming transcode coverage: byte-identity against the
// two-phase reference across the decode×encode worker grid, lifecycle
// tests proving cancellation and preemption mid-pipeline leak no frames
// from the shared pool, and the benchmark pair the bounded-memory claim
// is measured with.

import (
	"bytes"
	"context"
	"strconv"
	"testing"
	"time"

	"eclipse/internal/media"
)

// newTranscodeJobTwoPhase is the pre-fusion reference implementation:
// fully decode into pooled display-order frames, then re-encode as a
// single checkpointed Kahn task. It materializes every display frame at
// once (O(frames) pool traffic) and is retained as the baseline that
// parity tests and BenchmarkTranscode measure the fused pipeline
// against.
func newTranscodeJobTwoPhase(ctx context.Context, tenant string, stream []byte, q int, pool *media.SyncFramePool, workers, encWorkers int) (*Job, error) {
	seq, err := media.ParseSeqHeader(media.NewBitReader(stream))
	if err != nil {
		return nil, err
	}
	cfg := TranscodeConfig(seq, q)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	body := func(ctx context.Context, gate *Gate) (Result, error) {
		// Phase 1: decode into pooled display-order frames.
		frames, putSlice, err := decodeFrames(ctx, gate, stream, pool, workers)
		if err != nil {
			return Result{}, err
		}
		defer putSlice()
		// Phase 2: re-encode as a single checkpointed Kahn task under the
		// same gate, recycling each source frame once coded.
		var out []byte
		var stats *media.EncodeStats
		err = runTask(ctx, gate, "enc", func(checkpoint func() error) error {
			se, err := media.NewStreamEncoder(cfg, len(frames))
			if err != nil {
				return err
			}
			se.Workers = encWorkers
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

// TestTranscodeFusedParity sweeps decode workers 1..8 × encode workers
// 1..4 and requires the fused pipeline's output to be byte-identical to
// both the two-phase job and the offline batch re-encode.
func TestTranscodeFusedParity(t *testing.T) {
	stream, _, _ := testStream(t, 64, 48, 9, func(c *media.CodecConfig) {
		c.GOPM = 3
		c.HalfPel = true
	})
	const q = 9
	ref, err := media.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := media.Encode(TranscodeConfig(ref.Seq, q), ref.DisplayFrames())
	if err != nil {
		t.Fatal(err)
	}

	s := xcodeSched(t)
	for dw := 1; dw <= 8; dw++ {
		for ew := 1; ew <= 4; ew++ {
			t.Run("dw"+strconv.Itoa(dw)+"-ew"+strconv.Itoa(ew), func(t *testing.T) {
				pool := media.NewSyncFramePool(64)
				met := NewMetrics()
				fj, err := NewTranscodeJobSegmented(context.Background(), "t", stream, q, pool, dw, ew, 1, met)
				if err != nil {
					t.Fatal(err)
				}
				fused, err := runSync(t, s, fj)
				if err != nil {
					t.Fatalf("fused: %v", err)
				}
				tj, err := newTranscodeJobTwoPhase(context.Background(), "t", stream, q, pool, dw, ew)
				if err != nil {
					t.Fatal(err)
				}
				two, err := runSync(t, s, tj)
				if err != nil {
					t.Fatalf("two-phase: %v", err)
				}
				if !bytes.Equal(fused.Body, want) {
					t.Errorf("fused output differs from batch reference (%d vs %d bytes)", len(fused.Body), len(want))
				}
				if !bytes.Equal(fused.Body, two.Body) {
					t.Errorf("fused output differs from two-phase (%d vs %d bytes)", len(fused.Body), len(two.Body))
				}
				if n := pool.Outstanding(); n != 0 {
					t.Errorf("pool leak: %d frames outstanding", n)
				}
				if fused.Meta["X-Transcode-Peak-Frames"] == "" {
					t.Error("fused result missing X-Transcode-Peak-Frames")
				}
			})
		}
	}
}

// TestTranscodeFusedBoundedInflight checks the point of the fusion: on
// a long clip the fused pipeline's peak in-flight frame count stays
// bounded by the GOP reorder window, far below the clip length.
func TestTranscodeFusedBoundedInflight(t *testing.T) {
	const frames = 36
	stream, _, _ := testStream(t, 64, 48, frames, func(c *media.CodecConfig) { c.GOPM = 3 })
	pool := media.NewSyncFramePool(64)
	met := NewMetrics()
	s := xcodeSched(t)
	j, err := NewTranscodeJobSegmented(context.Background(), "t", stream, 9, pool, 4, 2, 1, met)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSync(t, s, j)
	if err != nil {
		t.Fatal(err)
	}
	peak, err := strconv.Atoi(res.Meta["X-Transcode-Peak-Frames"])
	if err != nil {
		t.Fatalf("bad X-Transcode-Peak-Frames %q", res.Meta["X-Transcode-Peak-Frames"])
	}
	// GOP M (3) + parser window (M+2) + handoff depth + encoder pending:
	// anything close to `frames` means the fusion regressed to batch.
	if peak <= 0 || peak >= frames/2 {
		t.Errorf("peak in-flight frames = %d for a %d-frame clip; want a small GOP-bounded value", peak, frames)
	}
	if got := met.XcodePeakFrames.Load(); got != int64(peak) {
		t.Errorf("metrics peak %d != job peak %d", got, peak)
	}
}

// TestTranscodeFusedCancelNoLeak cancels fused transcodes at a spread
// of points mid-pipeline and requires every pooled frame back (the
// joint-ownership accounting must drain on every unwind path).
func TestTranscodeFusedCancelNoLeak(t *testing.T) {
	stream, _, _ := testStream(t, 96, 80, 18, func(c *media.CodecConfig) {
		c.GOPM = 3
		c.HalfPel = true
	})
	s := xcodeSched(t)
	for _, delay := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond,
		8 * time.Millisecond, 20 * time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			pool := media.NewSyncFramePool(128)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			j, err := NewTranscodeJobSegmented(ctx, "t", stream, 9, pool, 4, 2, 1, NewMetrics())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
			time.Sleep(delay)
			j.Cancel()
			<-j.Done()
			// Whether the cancel landed mid-flight or after completion,
			// every frame must be back in the pool.
			if n := pool.Outstanding(); n != 0 {
				t.Fatalf("pool leak after cancel at %v: %d frames outstanding", delay, n)
			}
			if _, err := j.Result(); err != nil && !errorsIsCanceled(err) {
				t.Fatalf("unexpected error class: %v", err)
			}
		})
	}
}

func errorsIsCanceled(err error) bool {
	return err != nil && (context.Canceled == err || contains(err.Error(), "canceled"))
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestTranscodeFusedPreemptNoLeak runs a fused transcode under a 1ms
// slice so the scheduler preempts it repeatedly at frame boundaries;
// the output must still be bit-identical and the pool must drain.
func TestTranscodeFusedPreemptNoLeak(t *testing.T) {
	stream, _, _ := testStream(t, 96, 80, 12, func(c *media.CodecConfig) { c.GOPM = 3 })
	const q = 9
	ref, err := media.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := media.Encode(TranscodeConfig(ref.Seq, q), ref.DisplayFrames())
	if err != nil {
		t.Fatal(err)
	}

	s := NewScheduler(Config{Workers: 1, BaseSlice: time.Millisecond, QueueCap: 8}, NewMetrics())
	defer s.Drain(context.Background())
	pool := media.NewSyncFramePool(64)
	j, err := NewTranscodeJobSegmented(context.Background(), "t", stream, q, pool, 4, 2, 1, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSync(t, s, j)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want) {
		t.Errorf("preempted fused output differs from reference (%d vs %d bytes)", len(res.Body), len(want))
	}
	if j.Preempts() == 0 {
		t.Log("no preemptions observed (machine too fast for the 1ms slice); parity still checked")
	}
	if n := pool.Outstanding(); n != 0 {
		t.Errorf("pool leak after preempted run: %d frames outstanding", n)
	}
}

// TestTranscodeFusedBadStream truncates the bitstream mid-frame: the
// fused job must fail with ErrBitstream (for the 400 mapping) and leak
// nothing, at both decode widths.
func TestTranscodeFusedBadStream(t *testing.T) {
	stream, _, _ := testStream(t, 64, 48, 8, func(c *media.CodecConfig) { c.GOPM = 3 })
	bad := stream[:len(stream)*2/3]
	s := xcodeSched(t)
	for _, dw := range []int{1, 4} {
		pool := media.NewSyncFramePool(64)
		j, err := NewTranscodeJobSegmented(context.Background(), "t", bad, 9, pool, dw, 2, 1, NewMetrics())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runSync(t, s, j); err == nil {
			t.Fatalf("dw=%d: truncated stream transcoded successfully", dw)
		}
		if n := pool.Outstanding(); n != 0 {
			t.Errorf("dw=%d: pool leak on bad stream: %d frames outstanding", dw, n)
		}
	}
}

// FuzzTranscodeFusedParity fuzzes clip shape, GOP structure, quantizer,
// and worker counts, and requires fused == two-phase byte identity plus
// a drained pool on every input (valid or not).
func FuzzTranscodeFusedParity(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(6), uint8(9), uint8(12), uint8(3), false, int64(7), uint8(2), uint8(2))
	f.Add(uint8(2), uint8(1), uint8(9), uint8(12), uint8(6), uint8(1), true, int64(1), uint8(4), uint8(1))
	f.Add(uint8(1), uint8(2), uint8(4), uint8(20), uint8(8), uint8(4), true, int64(3), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, wmb, hmb, frames, q, gopn, gopm uint8, halfPel bool, seed int64, dw, ew uint8) {
		w := 16 * (1 + int(wmb)%4)
		h := 16 * (1 + int(hmb)%4)
		nf := 1 + int(frames)%12
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
		pool := media.NewSyncFramePool(64)
		s := xcodeSched(t)
		fj, err := NewTranscodeJobSegmented(context.Background(), "t", stream, xq, pool, 1+int(dw)%8, 1+int(ew)%4, 1, NewMetrics())
		if err != nil {
			t.Fatal(err)
		}
		fused, err := runSync(t, s, fj)
		if err != nil {
			t.Fatal(err)
		}
		tj, err := newTranscodeJobTwoPhase(context.Background(), "t", stream, xq, pool, 1+int(dw)%8, 1+int(ew)%4)
		if err != nil {
			t.Fatal(err)
		}
		two, err := runSync(t, s, tj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fused.Body, two.Body) {
			t.Fatalf("fused and two-phase outputs differ (%d vs %d bytes)", len(fused.Body), len(two.Body))
		}
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("pool leak: %d frames outstanding", n)
		}
	})
}

// benchClip is the workload BenchmarkTranscode runs: long enough that
// O(frames) vs O(GOP M) in-flight memory is visible in bytes/op.
func benchClip(b *testing.B) []byte {
	src := media.DefaultSource(176, 144)
	src.Seed = 1
	fr := media.NewSource(src).Frames(24)
	cfg := media.DefaultCodec(176, 144)
	cfg.GOPM = 3
	stream, _, _, err := media.Encode(cfg, fr)
	if err != nil {
		b.Fatal(err)
	}
	return stream
}

// BenchmarkTranscode compares the fused pipeline against the two-phase
// reference on the same clip, scheduler, and pool: wall time per op,
// allocated bytes per op, and (fused) the peak in-flight frame gauge.
func BenchmarkTranscode(b *testing.B) {
	stream := benchClip(b)
	const q = 9
	b.Run("fused", func(b *testing.B) {
		s := xcodeSched(b)
		pool := media.NewSyncFramePool(64)
		met := NewMetrics()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j, err := NewTranscodeJobSegmented(context.Background(), "t", stream, q, pool, 4, 0, 1, met)
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
	b.Run("two-phase", func(b *testing.B) {
		s := xcodeSched(b)
		pool := media.NewSyncFramePool(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j, err := newTranscodeJobTwoPhase(context.Background(), "t", stream, q, pool, 4, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := runSync(b, s, j); err != nil {
				b.Fatal(err)
			}
		}
	})
}
