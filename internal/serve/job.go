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

// Job is one admitted unit of work. Its body executes as checkpointed
// tasks — goroutines under the job's gate (runTasks) — so the scheduler
// can pause and resume it at the tasks' frame checkpoints; the context
// carries the request deadline end-to-end through the task bodies.
type Job struct {
	Tenant string
	Kind   Kind

	ctx    context.Context
	cancel context.CancelFunc
	gate   *Gate
	body   func(ctx context.Context, gate *Gate) (Result, error)
	done   chan struct{}
	res    Result
	err    error

	// Scheduler-owned state: guarded by the scheduler's mutex or by the
	// single worker holding the job. preempts is atomic because a worker
	// may record a preemption in the same instant the body finishes and
	// the submitter reads the count.
	started   bool
	preempts  atomic.Int32
	serviceNs int64
	enq       time.Time
	firstRun  time.Time
}

// NewJob wraps a body as a schedulable job. The gate starts closed; the
// first scheduling slice opens it.
func NewJob(tenant string, kind Kind, ctx context.Context,
	body func(ctx context.Context, gate *Gate) (Result, error)) *Job {
	jctx, cancel := context.WithCancel(ctx)
	return &Job{
		Tenant: tenant,
		Kind:   kind,
		ctx:    jctx,
		cancel: cancel,
		gate:   newGate(),
		body:   body,
		done:   make(chan struct{}),
	}
}

// run executes the body; spawned once, by the first worker slice. The
// job ties its two stop signals together for as long as the body runs: a
// dead context poisons the gate, so a job parked at a closed gate still
// unwinds on a client disconnect, a deadline, Cancel or a hard stop, with
// the context's own error. When the body returns the derived context is
// released, so a finished job does not stay registered with its parent.
func (j *Job) run() {
	stop := context.AfterFunc(j.ctx, func() { j.gate.Fail(j.ctx.Err()) })
	defer func() {
		if r := recover(); r != nil {
			j.err = fmt.Errorf("serve: job panicked: %v", r)
		}
		stop()
		j.cancel()
		close(j.done)
	}()
	j.res, j.err = j.body(j.ctx, j.gate)
}

// Done is closed when the job has finished (successfully or not).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel aborts the job: its gate is poisoned, so it unwinds even if
// currently descheduled.
func (j *Job) Cancel() { j.cancel() }

// Result returns the outcome; valid only after Done is closed.
func (j *Job) Result() (Result, error) { return j.res, j.err }

// Preempts reports how many times the scheduler preempted the job.
func (j *Job) Preempts() int { return int(j.preempts.Load()) }

// dispPool recycles the display-order scratch slices the response path
// fills via DecodeResult.DisplayFramesInto, so serializing a response
// does not allocate a fresh []*Frame per request.
var dispPool = sync.Pool{New: func() any { return new([]*media.Frame) }}

// decodeFrames is the one decode body of the serving tier, shared by
// decode jobs and the two-phase transcode reference: media's decoder as
// a single checkpointed task. The entropy front-end checkpoints at every
// frame header, so preemption and cancellation land at frame boundaries
// — reconstruction workers and all. workers is a width, not an engine:
// 1 is the serial decoder, above that the same decoder overlaps entropy
// parse with per-row reconstruction on that many workers; output and
// errors are identical for every width. It returns the display-order
// frames, every entry non-nil and drawn from pool (the caller takes
// ownership; on failure they are already back in the pool). putSlice
// returns the slice's backing storage to a shared pool; call it once the
// frames have been consumed.
func decodeFrames(ctx context.Context, gate *Gate, stream []byte, pool *media.SyncFramePool, workers int) (frames []*media.Frame, putSlice func(), err error) {
	var res *media.DecodeResult
	err = runTask(ctx, gate, "dec", func(checkpoint func() error) error {
		var err error
		res, err = media.DecodeWithOptions(stream, media.DecodeOptions{
			Workers:  workers,
			NewFrame: pool.Get,
			Recycle:  pool.Put,
			OnFrame:  func(int) error { return checkpoint() },
		})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	sp := dispPool.Get().(*[]*media.Frame)
	disp := res.DisplayFramesInto(*sp)
	release := func() {
		for i := range disp {
			disp[i] = nil // don't retain frames through the slice pool
		}
		*sp = disp[:0]
		dispPool.Put(sp)
	}
	for i, f := range disp {
		if f == nil { // malformed tref (out of range or duplicate)
			for _, df := range res.Coded {
				pool.Put(df.Frame)
			}
			release()
			return nil, nil, fmt.Errorf("%w: no frame for display index %d", media.ErrBitstream, i)
		}
	}
	return disp, release, nil
}

// NewDecodeJob builds a job that decodes an ECL1 bitstream and returns
// the display-order frames concatenated as raw 8-bit luma planes. workers
// is the decode width (see decodeFrames): 1 — and anything below it — is
// the serial decoder, above that `workers` reconstruction workers run
// beside the entropy parse. The sequence header is validated
// synchronously so malformed requests fail before admission.
func NewDecodeJob(ctx context.Context, tenant string, stream []byte, pool *media.SyncFramePool, workers int) (*Job, error) {
	seq, err := media.ParseSeqHeader(media.NewBitReader(stream))
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = 1 // not media.DecodeWorkers: the default width is serial
	}
	body := func(ctx context.Context, gate *Gate) (Result, error) {
		frames, putSlice, err := decodeFrames(ctx, gate, stream, pool, workers)
		if err != nil {
			return Result{}, err
		}
		plane := seq.W() * seq.H()
		// Pooled response body: recycled by the uncached HTTP tail once
		// written (see bufpool.go for the ownership rules).
		out := respBufs.Get(len(frames) * plane)
		off := 0
		for _, f := range frames {
			off += copy(out[off:], f.Pix)
		}
		n := len(frames)
		pool.PutAll(frames)
		putSlice()
		return Result{Body: out, Meta: seqMeta(seq, n)}, nil
	}
	return NewJob(tenant, KindDecode, ctx, body), nil
}

// NewEncodeJob builds a job that encodes raw display-order luma frames
// (len(raw) must be frames×W×H bytes) into an ECL1 bitstream. It is one
// task that checkpoints once per frame, so the job is preemptible at
// frame granularity; each plane is copied straight from the payload into
// a pooled frame and pushed into the StreamEncoder, bit-identical to the
// batch encoder. encWorkers bounds the per-frame analysis fan-out (0 =
// the media.EncodeWorkers default).
func NewEncodeJob(ctx context.Context, tenant string, cfg media.CodecConfig, raw []byte, pool *media.SyncFramePool, encWorkers int) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plane := cfg.W * cfg.H
	if len(raw) == 0 || len(raw)%plane != 0 {
		return nil, fmt.Errorf("serve: raw payload %d bytes is not a multiple of the %dx%d frame plane", len(raw), cfg.W, cfg.H)
	}
	frames := len(raw) / plane
	body := func(ctx context.Context, gate *Gate) (Result, error) {
		var (
			stream []byte
			stats  *media.EncodeStats
		)
		err := runTask(ctx, gate, "enc", func(checkpoint func() error) error {
			se, err := media.NewStreamEncoder(cfg, frames)
			if err != nil {
				return err
			}
			se.Workers = encWorkers
			se.Recycle = pool.Put
			for i := 0; i < frames; i++ {
				if err := checkpoint(); err != nil {
					se.Abort() // recycle frames buffered in the reorder window
					return err
				}
				f := pool.Get(cfg.W, cfg.H)
				copy(f.Pix, raw[i*plane:(i+1)*plane])
				if err := se.Push(f); err != nil {
					pool.Put(f) // Push failed before taking custody
					se.Abort()
					return err
				}
			}
			stream, stats, err = se.Close()
			return err
		})
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
