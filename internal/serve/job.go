package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eclipse/internal/media"
)

// Kind classifies a job.
type Kind uint8

const (
	KindDecode Kind = iota
	KindEncode
	KindTranscode
	nKinds
)

// Kinds enumerates the job kinds in label order. It is the one source
// for every per-kind array and loop, here and in the gateway
// ([len(serve.Kinds)]…), so adding a kind cannot mis-size either tier.
var Kinds = func() (ks [nKinds]Kind) {
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}()

// Path is the kind's endpoint, the same on both tiers.
func (k Kind) Path() string { return "/v1/" + k.String() }

// String names the kind for metrics labels.
func (k Kind) String() string {
	switch k {
	case KindDecode:
		return "decode"
	case KindEncode:
		return "encode"
	case KindTranscode:
		return "transcode"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Result is a completed job's response payload.
type Result struct {
	Body []byte
	Meta map[string]string // response headers (X-Seq-*)
}

// Job is one request's work. Its body executes as units (tasks.go):
// checkpointed goroutines the scheduler runs one slice at a time, each
// at its own gate; the context carries the request deadline end-to-end
// through the unit bodies. Admission, latency and the result belong to
// the job.
type Job struct {
	Tenant string
	Kind   Kind

	ctx    context.Context
	cancel context.CancelFunc
	stop   func() bool // unregisters the failure hook Submit set
	done   chan struct{}
	res    Result
	err    error

	mu     sync.Mutex
	units  []*unit      // every unit forked so far, for fail to poison
	live   int          // forked units not yet retired
	then   func() error // what the current phase's last unit runs
	failed error        // the first failure

	// Scheduler-owned state: set by Submit, or guarded by the
	// scheduler's mutex. preempts is atomic because a worker may record
	// a preemption in the same instant the job ends and the submitter
	// reads the count.
	sched     *Scheduler
	row       *tenant
	preempts  atomic.Int32
	serviceNs int64
	enq       time.Time
}

// newJob returns a job with no units.
func newJob(tenant string, kind Kind, ctx context.Context) *Job {
	jctx, cancel := context.WithCancel(ctx)
	return &Job{Tenant: tenant, Kind: kind, ctx: jctx, cancel: cancel, done: make(chan struct{})}
}

// NewJob wraps a body as a one-unit job. The unit's gate starts closed;
// the first scheduling slice opens it.
func NewJob(tenant string, kind Kind, ctx context.Context,
	body func(ctx context.Context, gate *Gate) (Result, error)) *Job {
	j := newJob(tenant, kind, ctx)
	j.fork(nil, &unit{name: kind.String(), fn: func(ctx context.Context, gate *Gate) (err error) {
		j.res, err = body(ctx, gate)
		return err
	}})
	return j
}

// Done is closed when the job has finished (successfully or not) and,
// if a scheduler ran it, has been counted in its tenant's row and its
// kind's latency and has released its admission space.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the outcome; valid only after Done is closed.
func (j *Job) Result() (Result, error) { return j.res, j.err }

// Preempts reports how many times the scheduler preempted the job.
func (j *Job) Preempts() int { return int(j.preempts.Load()) }

// decodeEager bounds the response body a decode reserves before its
// frames exist. A sequence header may declare more frames, or larger
// ones, than its stream holds, so the reservation is also capped at the
// frames the stream can hold (SeqHeader.MaxFrames), and past it the body
// grows with the frames the decoder delivers.
const decodeEager = 4 << 20

// NewDecodeJob builds a job that decodes an ECL1 bitstream and returns
// the display-order frames concatenated as raw 8-bit luma planes. The
// sequence header is validated synchronously so malformed requests fail
// before admission. The decoder streams, the way a transcode span
// consumes it: each frame is copied into the response at its display
// slot as soon as it is delivered and goes back to the pool once the
// decoder retires it, so a decode holds its reorder window of pooled
// frames, not the clip. It checkpoints at every frame header, so
// preemption and cancellation land at frame boundaries. The last
// parameter is ignored; it exists only for the benchmark rig.
func NewDecodeJob(ctx context.Context, tenant string, stream []byte, pool *media.SyncFramePool, _ int) (*Job, error) {
	seq, err := media.ParseSeqHeader(media.NewBitReader(stream))
	if err != nil {
		return nil, err
	}
	body := func(ctx context.Context, gate *Gate) (Result, error) {
		plane := seq.W() * seq.H()
		total := int64(seq.Frames) * int64(plane)
		// Pooled response body: recycled by the uncached HTTP tail once
		// written (see bufpool.go for the ownership rules).
		out := respBufs.Get(int(min(total, decodeEager, int64(seq.MaxFrames(len(stream)))*int64(plane))))[:0]
		_, err := media.DecodeWithOptions(stream, media.DecodeOptions{
			NewFrame: pool.Get,
			Recycle:  pool.Put,
			OnFrame:  func(int) error { return checkpoint(ctx, gate) },
			OnDisplayFrame: func(di int, f *media.Frame) error {
				end := (di + 1) * plane
				if end > cap(out) {
					out = respBufs.Grow(out, int(min(max(2*int64(cap(out)), int64(end)), total)))
				}
				out = out[:end]
				copy(out[di*plane:], f.Pix)
				return nil
			},
			Retire: pool.Put,
		})
		if err != nil {
			respBufs.Put(out)
			return Result{}, err
		}
		return Result{Body: out, Meta: seqMeta(seq, seq.Frames)}, nil
	}
	return NewJob(tenant, KindDecode, ctx, body), nil
}

// NewEncodeJob builds a job that encodes raw display-order luma frames
// (len(raw) must be frames×W×H bytes) into an ECL1 bitstream. It is one
// task that checkpoints once per frame, so the job is preemptible at
// frame granularity; each plane is copied straight from the payload into
// a pooled frame and pushed into the StreamEncoder, bit-identical to the
// batch encoder.
func NewEncodeJob(ctx context.Context, tenant string, cfg media.CodecConfig, raw []byte, pool *media.SyncFramePool) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plane := cfg.W * cfg.H
	if len(raw) == 0 || len(raw)%plane != 0 {
		return nil, fmt.Errorf("serve: raw payload %d bytes is not a multiple of the %dx%d frame plane", len(raw), cfg.W, cfg.H)
	}
	frames := len(raw) / plane
	body := func(ctx context.Context, gate *Gate) (Result, error) {
		se, err := media.NewStreamEncoder(cfg, frames)
		if err != nil {
			return Result{}, err
		}
		se.NewFrame, se.Recycle = pool.Get, pool.Put
		for i := 0; i < frames; i++ {
			if err := checkpoint(ctx, gate); err != nil {
				se.Abort() // recycle frames buffered in the reorder window
				return Result{}, err
			}
			f := pool.Get(cfg.W, cfg.H)
			copy(f.Pix, raw[i*plane:(i+1)*plane])
			if err := se.Push(f); err != nil {
				pool.Put(f) // Push failed before taking custody
				se.Abort()
				return Result{}, err
			}
		}
		stream, stats, err := se.Close()
		if err != nil {
			return Result{}, err
		}
		meta := map[string]string{
			"X-Seq-Width":  strconv.Itoa(cfg.W),
			"X-Seq-Height": strconv.Itoa(cfg.H),
			"X-Seq-Frames": strconv.Itoa(frames),
			"X-Seq-Bits":   strconv.Itoa(stats.TotalBits()),
		}
		return Result{Body: stream, Meta: meta}, nil
	}
	return NewJob(tenant, KindEncode, ctx, body), nil
}

// TranscodeConfig derives the re-encode configuration for a source
// sequence at a new quantizer: dimensions, GOP structure, and half-pel
// mode follow the source; the motion search radius is the codec default.
// Exported so offline reference checks (the benchmark rig, tests)
// reproduce the server's output bit-exactly.
func TranscodeConfig(seq media.SeqHeader, q int) media.CodecConfig {
	cfg := media.DefaultCodec(seq.W(), seq.H())
	cfg.Q = q
	cfg.GOPN = seq.GOPN
	cfg.GOPM = seq.GOPM
	cfg.HalfPel = seq.HalfPel
	return cfg
}

// seqMeta renders sequence parameters as response headers.
func seqMeta(seq media.SeqHeader, frames int) map[string]string {
	return map[string]string{
		"X-Seq-Width":  strconv.Itoa(seq.W()),
		"X-Seq-Height": strconv.Itoa(seq.H()),
		"X-Seq-Frames": strconv.Itoa(frames),
	}
}
