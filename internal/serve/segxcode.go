package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eclipse/internal/media"
)

// segMinFrames is the clip length below which a transcode runs as one
// span: a short clip rarely holds more than one closed GOP, so it is not
// worth predicting cuts for and running the index unit beside span 0.
const segMinFrames = 24

// errSpanStop unwinds a span whose end turned out open.
var errSpanStop = errors.New("serve: span dropped")

// NewTranscodeJobSegmented builds the transcode job: it decodes a
// bitstream and re-encodes it at quantizer q (TranscodeConfig: GOP
// structure, dimensions and half-pel mode inherited from the source
// sequence header) as one unit per closed-GOP span of the clip. Each
// span decodes its frames (media.DecodeSegment) and pushes every display
// frame synchronously into its own span encoder
// (media.NewStreamEncoderSegment); the span at display 0 writes the
// sequence header, and the job's last step appends the others' bits onto
// it (media.StitchSegments), so the output is byte-identical to decoding
// everything and batch re-encoding.
//
// segments caps the span count; the server passes Config.Workers. With
// segments > 1 on a clip of at least segMinFrames frames, the spans are
// media.PartitionSegments over the re-encode's closed cuts
// (media.EncodeClosedCuts of the header's GOP N and M). Span 0 starts at
// once; beside it an index unit (media.ConfirmCuts) confirms each cut
// closed on the decode side, forks that cut's span from its frame bit,
// and stops after the last cut, whose span's decoder validates the tail.
// A cut left open (only a header whose GOP fields lie) drops the span
// ending there, and the rest of the clip runs as one span from that
// span's start: any partition at closed cuts stitches to the same bytes.
// A clip with no interior cut (open GOPs: (N-1)%M != 0 and M > 1) is the
// one span [0, Frames). X-Transcode-Segments reports the span count.
//
// A stream fault ends the unit that meets it; one in a span whose end is
// confirmed also stops every span starting after it. The job reports the
// fault at the earliest coded frame among the index and the spans kept,
// so the error does not depend on timing. Frames are jointly owned
// (frameRefs) and pooled: peak in-flight memory is spans × O(GOP M).
// met, when non-nil, receives the peak-in-flight gauge and the segment
// counters. The two ints after pool exist only for the benchmark rig.
func NewTranscodeJobSegmented(ctx context.Context, tenant string, stream []byte, q int, pool *media.SyncFramePool, _, _, segments int, met *Metrics) (*Job, error) {
	r := media.NewBitReader(stream)
	seq, err := media.ParseSeqHeader(r)
	if err != nil {
		return nil, err
	}
	cfg := TranscodeConfig(seq, q)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	j := newJob(tenant, KindTranscode, ctx)
	track := &inflightFrames{pool: pool}
	refs := &frameRefs{n: make(map[*media.Frame]int), track: track}
	plan := [][2]int{{0, seq.Frames}}
	if segments > 1 && seq.Frames >= segMinFrames {
		plan = media.PartitionSegments(seq.Frames, segments, media.EncodeClosedCuts(seq.Frames, cfg.GOPN, cfg.GOPM))
	}
	// spans and the index's fault belong to this function, then to the
	// index unit, then to finish. A span ending by closed has a confirmed
	// end, so its fault at coded frame f counts: decide(f) stops the spans
	// starting after f, which cannot fault first. (The index forks a span
	// only past its first frame, so a later index fault stops none.)
	var spans []*span
	var ixErr error // the index unit's fault, at coded frame ixAt
	ixAt := 0
	var closed, decided atomic.Int64
	decided.Store(int64(seq.Frames))
	decide := func(f int) {
		for d := decided.Load(); int64(f) < d && !decided.CompareAndSwap(d, int64(f)); d = decided.Load() {
		}
	}
	finish := func() error {
		fault, at := ixErr, ixAt
		writers := make([]*media.BitWriter, len(spans))
		wall := make([]time.Duration, len(spans))
		totalBits := 0
		for i, s := range spans {
			if s.err != nil && (fault == nil || s.at < at) {
				fault, at = s.err, s.at
			}
			writers[i], wall[i], totalBits = s.w, s.wall, totalBits+s.bits
		}
		if fault != nil {
			return fault
		}
		out := media.StitchSegments(writers)
		nseg, peak := len(spans), track.peak.Load()
		if met != nil {
			storeMax(&met.XcodePeakFrames, peak)
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
		meta["X-Transcode-Peak-Frames"] = strconv.FormatInt(peak, 10)
		meta["X-Transcode-Segments"] = strconv.Itoa(nseg)
		j.res = Result{Body: out, Meta: meta}
		return nil
	}
	fork := func(lo, hi, bit int) {
		s := &span{lo: lo, hi: hi, bit: bit}
		spans = append(spans, s)
		j.fork(finish, &unit{name: "seg" + strconv.Itoa(lo), fn: func(ctx context.Context, gate *Gate) error {
			// The writer starts at the span's share of the input left
			// from bit; span 0's at all of it, since the stitch grows
			// that writer to the whole output.
			out := len(stream) - bit/8
			if lo > 0 {
				out = out * (hi - lo) / (seq.Frames - lo)
			}
			enc, err := media.NewStreamEncoderSegment(cfg, seq.Frames, lo, hi, out)
			if err != nil {
				return err
			}
			enc.NewFrame, enc.Recycle = pool.Get, refs.release
			start, at := time.Now(), lo
			var halt error // a checkpoint's: the job fails with it
			_, err = media.DecodeSegment(stream, bit, lo, hi, media.DecodeOptions{
				NewFrame: track.get,
				Recycle:  track.put, // undelivered frames: decoder is sole owner
				OnFrame: func(fi int) error {
					if spanFrames != nil {
						spanFrames(lo, fi)
					}
					if at = fi; s.stop.Load() || int64(lo) > decided.Load() {
						return errSpanStop
					}
					halt = checkpoint(ctx, gate)
					return halt
				},
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
			var stats *media.EncodeStats
			if err != nil {
				enc.Abort()
			} else if s.w, stats, err = enc.CloseRaw(); err == nil {
				s.bits, s.wall = stats.TotalBits(), time.Since(start)
			}
			if err != nil && halt == nil && !errors.Is(err, errSpanStop) {
				s.err, s.at = fmt.Errorf("seg [%d,%d): %w", lo, hi, err), at
				if s.failed.Store(true); hi == seq.Frames || int64(hi) <= closed.Load() {
					decide(at)
				}
			}
			return halt
		}})
	}
	if len(plan) > 1 {
		j.fork(finish, &unit{name: "ix", fn: func(ctx context.Context, gate *Gate) error {
			var cuts []int
			for _, sp := range plan[1:] {
				cuts = append(cuts, sp[0])
			}
			var halt error
			k, err := media.ConfirmCuts(stream, cuts, func(fi int) error {
				ixAt, halt = fi, checkpoint(ctx, gate)
				return halt
			}, func(c, bit int) {
				if closed.Store(int64(c)); spans[len(spans)-1].failed.Load() {
					decide(spans[len(spans)-1].at)
				}
				fork(c, plan[len(spans)][1], bit)
			})
			if halt != nil || k == len(cuts) {
				return halt
			}
			// The last span ends at cut k, open or never reached.
			last := spans[len(spans)-1]
			last.stop.Store(true)
			spans = spans[:len(spans)-1]
			if ixErr = err; err == nil {
				fork(last.lo, seq.Frames, last.bit)
			}
			return nil
		}})
	}
	fork(0, plan[0][1], r.BitPos())
	return j, nil
}

// spanFrames, when a test sets it, sees each coded frame fi that the span
// from lo reaches.
var spanFrames func(lo, fi int)

// span is the display range [lo, hi) one unit decodes from bit: its
// output, or the stream fault it met at coded frame at.
type span struct {
	lo, hi, bit, at, bits int
	stop                  atomic.Bool // its end is open: it is dropped
	failed                atomic.Bool // err and at are set
	err                   error
	w                     *media.BitWriter
	wall                  time.Duration
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
