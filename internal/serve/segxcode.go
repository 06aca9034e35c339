package serve

import (
	"context"
	"strconv"
	"time"

	"eclipse/internal/media"
)

// segMinFrames is the clip length below which segmented transcode is
// not worth its indexing pass: the fused pipeline already overlaps
// decode and encode, and short clips rarely contain more than one
// closed GOP anyway.
const segMinFrames = 24

// NewTranscodeJobSegmented builds the transcode job: it decodes a
// bitstream and re-encodes it at quantizer q, splitting the clip at
// closed-GOP boundaries and running up to `segments` independent fused
// decode→encode pipelines in parallel, then splicing their headerless
// bitstreams back together (media.StitchSegments) into output
// byte-identical to the serial fused path. Each segment pipeline is its
// own checkpointed task, so scheduler preemption and cancellation land
// at frame boundaries in every segment at once; frames stay jointly
// owned (frameRefs) and pooled, so peak in-flight memory is bounded by
// segments × O(GOP M), never O(frames).
//
// Clips shorter than segMinFrames, requests with segments <= 1, and
// clips whose GOP structure yields no usable interior cut (open GOPs:
// any N, M with (N-1)%M != 0 and M > 1) run the single fused pipeline
// (fusedTranscodeBody, which also documents workers, encWorkers and
// met); the X-Transcode-Segments response header reports the
// parallelism actually used.
func NewTranscodeJobSegmented(ctx context.Context, tenant string, stream []byte, q int, pool *media.SyncFramePool, workers, encWorkers, segments int, met *Metrics) (*Job, error) {
	seq, err := media.ParseSeqHeader(media.NewBitReader(stream))
	if err != nil {
		return nil, err
	}
	cfg := TranscodeConfig(seq, q)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fused := fusedTranscodeBody(stream, seq, cfg, q, pool, workers, encWorkers, met)
	body := func(ctx context.Context, gate *Gate) (Result, error) {
		if segments <= 1 || seq.Frames < segMinFrames {
			return runFusedFallback(ctx, gate, fused)
		}
		// Phase A: one checkpointed scan of the bitstream builds the GOP
		// index (frame bit offsets + closed-cut set) and validates the
		// stream's structure before any pixel work starts.
		var ix *media.GOPIndex
		err := runTask(ctx, gate, "ix", func(checkpoint func() error) error {
			var err error
			ix, err = media.IndexGOPs(stream, func(int) error { return checkpoint() })
			return err
		})
		if err != nil {
			return Result{}, err
		}
		cuts := ix.TranscodeCuts(cfg.GOPN, cfg.GOPM)
		spans := media.PartitionSegments(seq.Frames, segments, cuts)
		if len(spans) <= 1 {
			return runFusedFallback(ctx, gate, fused)
		}

		// Phase B: one fused decode→encode pipeline per span, all under
		// the job gate. A failure in any segment poisons the gate, so
		// sibling segments unwind at their next frame checkpoint.
		nseg := len(spans)
		track := &inflightFrames{pool: pool}
		refs := &frameRefs{n: make(map[*media.Frame]int)}
		release := func(f *media.Frame) { refs.release(f, track.put) }
		writers := make([]*media.BitWriter, nseg)
		segStats := make([]*media.EncodeStats, nseg)
		wall := make([]time.Duration, nseg)

		tasks := make([]task, nseg)
		for i := range tasks {
			lo, hi := spans[i][0], spans[i][1]
			tasks[i] = task{"seg" + strconv.Itoa(i), func(g *group) error {
				enc, err := media.NewStreamEncoderSegment(cfg, seq.Frames, lo, hi)
				if err != nil {
					return err
				}
				enc.Workers = encWorkers
				enc.Recycle = release
				start := time.Now()
				_, err = media.DecodeSegment(stream, ix.FrameBit(lo), lo, hi, media.DecodeOptions{
					Workers:  workers,
					NewFrame: track.get,
					Recycle:  track.put, // undelivered frames: decoder is sole owner
					OnFrame:  func(int) error { return g.checkpoint() },
					OnDisplayFrame: func(di int, f *media.Frame) error {
						// Two stakes: the decoder keeps reading the frame as
						// a prediction reference until Retire; the encoder's
						// stake drops via enc.Recycle once coded. Fusion is
						// synchronous here — the segments themselves are the
						// parallelism, so no handoff channel per segment.
						refs.add(f, 2)
						if err := enc.Push(f); err != nil {
							release(f) // encoder stake; Retire covers the decoder's
							return err
						}
						return nil
					},
					Retire: release,
				})
				if err != nil {
					enc.Abort()
					return err
				}
				w, stats, err := enc.CloseRaw()
				if err != nil {
					return err
				}
				writers[i] = w
				segStats[i] = stats
				wall[i] = time.Since(start)
				return nil
			}}
		}
		err = runTasks(ctx, gate, tasks...)
		if met != nil {
			storeMax(&met.XcodePeakFrames, track.peak.Load())
		}
		if err != nil {
			return Result{}, err
		}

		out, err := media.StitchSegments(cfg, seq.Frames, writers)
		if err != nil {
			return Result{}, err
		}
		totalBits := 0
		for _, st := range segStats {
			totalBits += st.TotalBits()
		}
		minW, maxW := wall[0], wall[0]
		for _, d := range wall[1:] {
			if d < minW {
				minW = d
			}
			if d > maxW {
				maxW = d
			}
		}
		if met != nil {
			met.XcodeSegJobs.Add(1)
			met.XcodeSegments.Add(uint64(nseg))
			met.XcodeStitchBytes.Add(uint64(len(out)))
			storeMax(&met.XcodeSegSkewNs, int64(maxW-minW))
		}
		meta := seqMeta(seq, seq.Frames)
		meta["X-Seq-Q"] = strconv.Itoa(q)
		meta["X-Seq-Bits"] = strconv.Itoa(totalBits)
		meta["X-Transcode-Peak-Frames"] = strconv.FormatInt(track.peak.Load(), 10)
		meta["X-Transcode-Segments"] = strconv.Itoa(nseg)
		return Result{Body: out, Meta: meta}, nil
	}
	return NewJob(tenant, KindTranscode, ctx, body), nil
}

// runFusedFallback runs the single fused pipeline under the same gate
// and stamps the response as unsegmented.
func runFusedFallback(ctx context.Context, gate *Gate,
	fused func(ctx context.Context, gate *Gate) (Result, error)) (Result, error) {
	res, err := fused(ctx, gate)
	if err != nil {
		return Result{}, err
	}
	res.Meta["X-Transcode-Segments"] = "1"
	return res, nil
}
