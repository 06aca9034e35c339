package serve

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eclipse/internal/media"
)

// segMinFrames is the clip length below which a transcode is not worth
// its indexing pass: short clips rarely contain more than one closed
// GOP, so they run as one span without the scan.
const segMinFrames = 24

// NewTranscodeJobSegmented builds the transcode job: it decodes a
// bitstream and re-encodes it at quantizer q (TranscodeConfig: GOP
// structure, dimensions and half-pel mode inherited from the source
// sequence header) as one unit per closed-GOP span of the clip. Each
// span decodes its frames (media.DecodeSegment) and pushes every display
// frame synchronously into its own span encoder
// (media.NewStreamEncoderSegment); the span at display 0 writes the
// sequence header, and the span that finishes last appends the others'
// bits onto it (media.StitchSegments), so the output is byte-identical
// to decoding everything and batch re-encoding.
//
// segments caps the span count; the server passes Config.Workers. With
// segments > 1 on a clip of at least segMinFrames frames, the job's
// first unit is one checkpointed scan (media.IndexGOPs) that finds the
// cuts closed on both the decode and the re-encode side, and
// media.PartitionSegments splits the clip into up to `segments` spans.
// Otherwise the clip is the one span [0, Frames), decoded from right
// after the sequence header; so is a clip whose GOP structure yields no
// interior cut (open GOPs: any N, M with (N-1)%M != 0 and M > 1). The
// X-Transcode-Segments response header reports the span count used.
//
// Every span is a unit the scheduler runs on its own, checkpointing once
// per frame, and a failing span fails the job so its siblings unwind at
// their next checkpoint. Frames are jointly owned (frameRefs) and
// pooled, so peak in-flight memory is bounded by spans × O(GOP M), never
// O(frames). met, when non-nil, receives the peak-in-flight gauge and
// the segment counters. The two ints after pool are ignored; they exist
// only for the benchmark rig.
func NewTranscodeJobSegmented(ctx context.Context, tenant string, stream []byte, q int, pool *media.SyncFramePool, _, _, segments int, met *Metrics) (*Job, error) {
	r := media.NewBitReader(stream)
	seq, err := media.ParseSeqHeader(r)
	if err != nil {
		return nil, err
	}
	firstFrameBit := r.BitPos()
	cfg := TranscodeConfig(seq, q)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	j := newJob(tenant, KindTranscode, ctx)
	var ix *media.GOPIndex
	forkSpans := func() error {
		spans := [][2]int{{0, seq.Frames}}
		frameBit := func(int) int { return firstFrameBit }
		if ix != nil {
			spans = media.PartitionSegments(seq.Frames, segments, ix.TranscodeCuts(cfg.GOPN, cfg.GOPM))
			frameBit = ix.FrameBit
		}
		// A span's output writer starts at its input span's length.
		endBit := func(hi int) int {
			if hi == seq.Frames {
				return 8 * len(stream)
			}
			return frameBit(hi)
		}
		nseg := len(spans)
		track := &inflightFrames{pool: pool}
		refs := &frameRefs{n: make(map[*media.Frame]int), track: track}
		writers := make([]*media.BitWriter, nseg)
		bits := make([]int, nseg)
		wall := make([]time.Duration, nseg)
		units := make([]*unit, nseg)
		for i, sp := range spans {
			lo, hi := sp[0], sp[1]
			units[i] = &unit{name: "seg" + strconv.Itoa(i), fn: func(ctx context.Context, gate *Gate) error {
				enc, err := media.NewStreamEncoderSegment(cfg, seq.Frames, lo, hi, (endBit(hi)-frameBit(lo)+7)/8)
				if err != nil {
					return err
				}
				enc.NewFrame, enc.Recycle = pool.Get, refs.release
				start := time.Now()
				_, err = media.DecodeSegment(stream, frameBit(lo), lo, hi, media.DecodeOptions{
					NewFrame: track.get,
					Recycle:  track.put, // undelivered frames: decoder is sole owner
					OnFrame:  func(int) error { return checkpoint(ctx, gate) },
					OnDisplayFrame: func(_ int, f *media.Frame) error {
						// Two stakes: the decoder keeps reading the frame as
						// a prediction reference until Retire; the encoder's
						// stake drops via enc.Recycle once coded.
						refs.add(f, 2)
						if err := enc.Push(f); err != nil {
							refs.release(f) // encoder stake; Retire covers the decoder's
							return err
						}
						return nil
					},
					Retire: refs.release,
				})
				if err != nil {
					enc.Abort()
					return err
				}
				w, stats, err := enc.CloseRaw()
				if err != nil {
					return err
				}
				writers[i], bits[i], wall[i] = w, stats.TotalBits(), time.Since(start)
				return nil
			}}
		}
		stitch := func() error {
			out := media.StitchSegments(writers)
			totalBits := 0
			for _, b := range bits {
				totalBits += b
			}
			if met != nil {
				storeMax(&met.XcodePeakFrames, track.peak.Load())
				if nseg > 1 {
					met.XcodeSegJobs.Add(1)
					met.XcodeSegments.Add(uint64(nseg))
					met.XcodeStitchBytes.Add(uint64(len(out)))
					storeMax(&met.XcodeSegSkewNs, int64(slices.Max(wall)-slices.Min(wall)))
				}
			}
			meta := seqMeta(seq, seq.Frames)
			meta["X-Seq-Q"] = strconv.Itoa(q)
			meta["X-Seq-Bits"] = strconv.Itoa(totalBits)
			meta["X-Transcode-Peak-Frames"] = strconv.FormatInt(track.peak.Load(), 10)
			meta["X-Transcode-Segments"] = strconv.Itoa(nseg)
			j.res = Result{Body: out, Meta: meta}
			return nil
		}
		j.fork(stitch, units...)
		return nil
	}
	if segments > 1 && seq.Frames >= segMinFrames {
		// One checkpointed scan of the bitstream builds the GOP index
		// (frame bit offsets + closed-cut set) and validates the
		// stream's structure before any pixel work starts.
		j.fork(forkSpans, &unit{name: "ix", fn: func(ctx context.Context, gate *Gate) (err error) {
			ix, err = media.IndexGOPs(stream, func(int) error { return checkpoint(ctx, gate) })
			return err
		}})
	} else {
		forkSpans()
	}
	return j, nil
}

// frameRefs counts the joint owners of frames a span unit hands from its
// decoder to its encoder. A delivered frame has two stakes: the
// decoder's (it may keep reading the frame as a motion-compensation
// reference long after delivery; released by the Retire hook) and the
// encoder's (released once the frame is coded, or by the unwind paths).
// Only when the last stake drops may the frame return to the shared
// pool — Get zeroes pixels, so recycling earlier would corrupt in-flight
// prediction.
type frameRefs struct {
	mu    sync.Mutex
	n     map[*media.Frame]int
	track *inflightFrames
}

func (r *frameRefs) add(f *media.Frame, n int) {
	r.mu.Lock()
	r.n[f] += n
	r.mu.Unlock()
}

// release drops one stake and returns the frame through the in-flight
// gauge when none remain. A frame never added is a span encoder's
// reconstruction frame, drawn outside the gauge: it goes straight back.
func (r *frameRefs) release(f *media.Frame) {
	if f == nil {
		return
	}
	r.mu.Lock()
	n, tracked := r.n[f]
	if tracked {
		n--
		if n == 0 {
			delete(r.n, f)
		} else {
			r.n[f] = n
		}
	}
	r.mu.Unlock()
	if !tracked {
		r.track.pool.Put(f)
	} else if n == 0 {
		r.track.put(f)
	}
}

// inflightFrames instruments one job's traffic through the shared frame
// pool with a current/peak gauge — the measurable form of the transcode's
// bounded-memory claim (peak stays spans × O(GOP M + reconstruction
// window) instead of O(frames)).
type inflightFrames struct {
	pool *media.SyncFramePool
	cur  atomic.Int64
	peak atomic.Int64
}

func (t *inflightFrames) get(w, h int) *media.Frame {
	storeMax(&t.peak, t.cur.Add(1))
	return t.pool.Get(w, h)
}

func (t *inflightFrames) put(f *media.Frame) {
	if f == nil {
		return
	}
	t.cur.Add(-1)
	t.pool.Put(f)
}
