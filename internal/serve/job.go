package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eclipse"
	"eclipse/internal/copro"
	"eclipse/internal/kpn"
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

// Job is one admitted unit of work. Its body executes on the KPN runtime
// under the job's gate, so the scheduler can pause and resume the whole
// network at stream-operation boundaries; the context carries the
// request deadline end-to-end through the KPN task bodies.
type Job struct {
	Tenant string
	Kind   Kind

	ctx    context.Context
	cancel context.CancelFunc
	gate   *kpn.Gate
	body   func(ctx context.Context, gate *kpn.Gate) (Result, error)
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
	body func(ctx context.Context, gate *kpn.Gate) (Result, error)) *Job {
	jctx, cancel := context.WithCancel(ctx)
	return &Job{
		Tenant: tenant,
		Kind:   kind,
		ctx:    jctx,
		cancel: cancel,
		gate:   kpn.NewGate(false),
		body:   body,
		done:   make(chan struct{}),
	}
}

// run executes the body; spawned once, by the first worker slice.
func (j *Job) run() {
	defer func() {
		if r := recover(); r != nil {
			j.err = fmt.Errorf("serve: job panicked: %v", r)
		}
		close(j.done)
	}()
	j.res, j.err = j.body(j.ctx, j.gate)
}

// Done is closed when the job has finished (successfully or not).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel aborts the job: its KPN network is poisoned and unwinds even if
// currently descheduled.
func (j *Job) Cancel() { j.cancel() }

// Result returns the outcome; valid only after Done is closed.
func (j *Job) Result() (Result, error) { return j.res, j.err }

// Preempts reports how many times the scheduler preempted the job.
func (j *Job) Preempts() int { return int(j.preempts.Load()) }

// serveDecodeBuffers sizes the decode pipeline's FIFO buffers for a
// software server: the cycle model's defaults emulate a 32 kB on-chip
// SRAM and would force a task switch every few hundred bytes; here the
// buffers only bound memory per in-flight job (~26 kB each), so larger
// ones cut goroutine ping-pong.
func serveDecodeBuffers() eclipse.DecodeBuffers {
	return eclipse.DecodeBuffers{
		Bits:  4096,
		Tok:   8192,
		Hdr:   2048,
		Coef:  8192,
		Resid: 8192,
		Pix:   8192,
	}
}

// rawChunk is the transfer unit for streaming raw frames into an encode
// pipeline.
const rawChunk = 8192

// dispPool recycles the display-order scratch slices the response path
// fills via DecodeResult.DisplayFramesInto, so serializing a response
// does not allocate a fresh []*Frame per request.
var dispPool = sync.Pool{New: func() any { return new([]*media.Frame) }}

// runParallelDecode executes the pipeline-parallel decoder as a single
// Kahn task under the job's gate: the entropy front-end checkpoints at
// every frame header, so the scheduler can preempt (and cancellation can
// poison) the whole decode — reconstruction workers and all — at frame
// boundaries. Frames are drawn from and, on failure, returned to the
// shared pool.
func runParallelDecode(ctx context.Context, gate *kpn.Gate, stream []byte, pool *media.SyncFramePool, workers int) (*media.DecodeResult, error) {
	g := kpn.NewGraph("pardec")
	g.AddTask("dec", "decode")
	var res *media.DecodeResult
	funcs := map[string]kpn.TaskFunc{
		"decode": func(c *kpn.TaskCtx) error {
			var err error
			res, err = media.DecodeWithOptions(stream, media.DecodeOptions{
				Workers:  workers,
				NewFrame: pool.Get,
				Recycle:  pool.Put,
				OnFrame:  func(int) error { return c.Checkpoint() },
			})
			return err
		},
	}
	if err := kpn.RunContext(ctx, g, funcs, kpn.WithGate(gate)); err != nil {
		return nil, err
	}
	return res, nil
}

// decodeFrames runs the decode phase shared by decode and transcode
// jobs and returns the display-order frames, every entry non-nil and
// drawn from pool (the caller takes ownership). workers selects the
// engine: the six-task KPN pipeline at <= 1 (bulk tenants keep the
// fine-grained coprocessor-shaped network), the pipeline-parallel
// decoder above that (interactive tenants overlap entropy parse with
// per-row reconstruction). putSlice returns the slice's backing storage
// to a shared pool; call it once the frames have been consumed.
func decodeFrames(ctx context.Context, gate *kpn.Gate, stream []byte, seq media.SeqHeader, pool *media.SyncFramePool, workers int) (frames []*media.Frame, putSlice func(), err error) {
	if workers > 1 {
		res, err := runParallelDecode(ctx, gate, stream, pool, workers)
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
				return nil, nil, fmt.Errorf("serve: decoded stream missing frame %d", i)
			}
		}
		return disp, release, nil
	}
	var sink copro.FunctionalSink
	g := eclipse.DecodeGraph("job", serveDecodeBuffers())
	funcs := copro.FunctionalDecodeFuncsPooled(stream, seq, &sink, pool)
	if err := kpn.RunContext(ctx, g, funcs, kpn.WithGate(gate)); err != nil {
		pool.PutAll(sink.Frames)
		return nil, nil, err
	}
	for i, f := range sink.Frames {
		if f == nil {
			pool.PutAll(sink.Frames)
			return nil, nil, fmt.Errorf("serve: decoded stream missing frame %d", i)
		}
	}
	return sink.Frames, func() {}, nil
}

// NewDecodeJob builds a job that decodes an ECL1 bitstream and returns
// the display-order frames concatenated as raw 8-bit luma planes. With
// workers <= 1 the decode runs on the six-task KPN pipeline
// (src→vld→rlsq→idct→mc→sink); above that it runs the pipeline-parallel
// decoder with `workers` reconstruction workers (see decodeFrames).
// The sequence header is validated synchronously so malformed requests
// fail before admission.
func NewDecodeJob(ctx context.Context, tenant string, stream []byte, pool *media.SyncFramePool, workers int) (*Job, error) {
	seq, err := media.ParseSeqHeader(media.NewBitReader(stream))
	if err != nil {
		return nil, err
	}
	body := func(ctx context.Context, gate *kpn.Gate) (Result, error) {
		frames, putSlice, err := decodeFrames(ctx, gate, stream, seq, pool, workers)
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
// (len(raw) must be frames×W×H bytes) into an ECL1 bitstream. The raw
// plane is streamed through a two-task KPN graph (rawsrc→enc) so the
// job is preemptible at frame granularity; the encode itself is the
// push-based StreamEncoder, bit-identical to the batch encoder.
// encWorkers bounds the per-frame analysis fan-out (0 = the
// media.EncodeWorkers default).
func NewEncodeJob(ctx context.Context, tenant string, cfg media.CodecConfig, raw []byte, pool *media.SyncFramePool, encWorkers int) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plane := cfg.W * cfg.H
	if len(raw) == 0 || len(raw)%plane != 0 {
		return nil, fmt.Errorf("serve: raw payload %d bytes is not a multiple of the %dx%d frame plane", len(raw), cfg.W, cfg.H)
	}
	frames := len(raw) / plane
	body := func(ctx context.Context, gate *kpn.Gate) (Result, error) {
		g := kpn.NewGraph("encjob")
		g.AddTask("src", "rawsrc").AddOut("raw")
		g.AddTask("enc", "encode").AddIn("raw")
		g.MustConnect("src.raw", 2*rawChunk, "enc.raw")
		var (
			stream []byte
			stats  *media.EncodeStats
		)
		funcs := map[string]kpn.TaskFunc{
			"rawsrc": func(c *kpn.TaskCtx) error {
				for off := 0; off < len(raw); off += rawChunk {
					end := off + rawChunk
					if end > len(raw) {
						end = len(raw)
					}
					if err := c.Write("raw", raw[off:end]); err != nil {
						return err
					}
				}
				return nil
			},
			"encode": func(c *kpn.TaskCtx) error {
				se, err := media.NewStreamEncoder(cfg, frames)
				if err != nil {
					return err
				}
				se.Workers = encWorkers
				se.Recycle = pool.Put
				for i := 0; i < frames; i++ {
					f := pool.Get(cfg.W, cfg.H)
					if err := c.Read("raw", f.Pix); err != nil {
						pool.Put(f)
						return fmt.Errorf("frame %d: %w", i, err)
					}
					if err := se.Push(f); err != nil {
						pool.Put(f)
						return err
					}
				}
				stream, stats, err = se.Close()
				return err
			},
		}
		if err := kpn.RunContext(ctx, g, funcs, kpn.WithGate(gate)); err != nil {
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

// fusedHandoffDepth bounds the display-order frames buffered between
// the fused transcode's decode task (delivery hook) and encode task.
// Deliberately small: the decoder's own reorder window already absorbs
// GOP reordering, so the handoff only needs enough slack to ride out
// scheduling jitter between the two stages.
const fusedHandoffDepth = 2

// frameRefs counts the joint owners of frames crossing the fused
// decoder→encoder handoff. A delivered frame has two stakes: the
// decoder's (it may keep reading the frame as a motion-compensation
// reference long after delivery; released by the Retire hook) and the
// encoder's (released once the frame is coded, or by the unwind paths).
// Only when the last stake drops may the frame return to the shared
// pool — Get zeroes pixels, so recycling earlier would corrupt
// in-flight prediction.
type frameRefs struct {
	mu sync.Mutex
	n  map[*media.Frame]int
}

func (r *frameRefs) add(f *media.Frame, n int) {
	r.mu.Lock()
	r.n[f] += n
	r.mu.Unlock()
}

// release drops one stake and hands the frame to put when none remain.
// Frames that never went through add (undelivered ones the decoder
// recycles directly) bypass the table entirely.
func (r *frameRefs) release(f *media.Frame, put func(*media.Frame)) {
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
	if !tracked || n == 0 {
		put(f)
	}
}

// inflightFrames instruments one job's traffic through the shared frame
// pool with a current/peak gauge — the measurable form of the fused
// pipeline's bounded-memory claim (peak stays O(GOP M + reconstruction
// window) instead of O(frames)).
type inflightFrames struct {
	pool *media.SyncFramePool
	cur  atomic.Int64
	peak atomic.Int64
}

func (t *inflightFrames) get(w, h int) *media.Frame {
	cur := t.cur.Add(1)
	for {
		p := t.peak.Load()
		if cur <= p || t.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	return t.pool.Get(w, h)
}

func (t *inflightFrames) put(f *media.Frame) {
	if f == nil {
		return
	}
	t.cur.Add(-1)
	t.pool.Put(f)
}

// NewTranscodeJob builds a job that decodes a bitstream and re-encodes
// it at quantizer q (GOP structure, dimensions, and half-pel mode
// inherited from the source sequence header) as one fused streaming
// pipeline: a two-task Kahn network where the decode task delivers
// display-order frames through a bounded channel straight into the
// encode task's StreamEncoder. Both tasks checkpoint once per frame, so
// preemption and cancellation land at frame boundaries in either stage;
// frames are jointly owned (see frameRefs) and recycled into pool the
// moment both stages are done with them, keeping in-flight memory
// bounded by the GOP reorder distance rather than the clip length. The
// output is bit-identical to decoding everything first and batch
// re-encoding. encWorkers bounds the encoder's per-frame analysis
// fan-out (0 = the media.EncodeWorkers default); met, when non-nil,
// receives the peak-in-flight gauge and handoff stall counters.
func NewTranscodeJob(ctx context.Context, tenant string, stream []byte, q int, pool *media.SyncFramePool, workers, encWorkers int, met *Metrics) (*Job, error) {
	seq, err := media.ParseSeqHeader(media.NewBitReader(stream))
	if err != nil {
		return nil, err
	}
	cfg := TranscodeConfig(seq, q)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	body := fusedTranscodeBody(stream, seq, cfg, q, pool, workers, encWorkers, met)
	return NewJob(tenant, KindTranscode, ctx, body), nil
}

// fusedTranscodeBody builds the fused two-task transcode body shared by
// NewTranscodeJob and the segmented job's fallback path (clips too short
// or without usable closed-GOP cuts).
func fusedTranscodeBody(stream []byte, seq media.SeqHeader, cfg media.CodecConfig, q int, pool *media.SyncFramePool, workers, encWorkers int, met *Metrics) func(ctx context.Context, gate *kpn.Gate) (Result, error) {
	return func(ctx context.Context, gate *kpn.Gate) (Result, error) {
		track := &inflightFrames{pool: pool}
		refs := &frameRefs{n: make(map[*media.Frame]int)}
		release := func(f *media.Frame) { refs.release(f, track.put) }

		// Decoder→encoder handoff. `dead` breaks the decode side's
		// blocking send once the encode task has failed (a Go-channel
		// block is invisible to the KPN deadlock detector, so the handoff
		// must unwind itself); encFailure carries the encoder's root
		// cause so both tasks report the same error regardless of which
		// one the executor records first.
		handoff := make(chan *media.Frame, fusedHandoffDepth)
		dead := make(chan struct{})
		var deadOnce sync.Once
		var encFailure error
		encFailed := func(err error) {
			deadOnce.Do(func() {
				encFailure = err
				close(dead)
			})
		}

		g := kpn.NewGraph("xcode")
		g.AddTask("dec", "decode")
		g.AddTask("enc", "encode")
		var out []byte
		var stats *media.EncodeStats
		funcs := map[string]kpn.TaskFunc{
			"decode": func(c *kpn.TaskCtx) error {
				defer close(handoff)
				_, err := media.DecodeWithOptions(stream, media.DecodeOptions{
					Workers:  workers,
					NewFrame: track.get,
					Recycle:  track.put, // undelivered frames: decoder is sole owner
					OnFrame:  func(int) error { return c.Checkpoint() },
					OnDisplayFrame: func(di int, f *media.Frame) error {
						refs.add(f, 2) // decoder stake (until Retire) + encoder stake
						select {
						case handoff <- f:
							return nil
						default:
						}
						if met != nil {
							met.XcodePushStalls.Add(1)
						}
						select {
						case handoff <- f:
							return nil
						case <-dead:
							release(f) // the encoder's stake; Retire still covers the decoder's
							return encFailure
						}
					},
					Retire: release,
				})
				return err
			},
			"encode": func(c *kpn.TaskCtx) error {
				se, err := media.NewStreamEncoder(cfg, seq.Frames)
				if err != nil {
					encFailed(err)
					return err
				}
				se.Workers = encWorkers
				se.Recycle = release
				got := 0
				for {
					var f *media.Frame
					var ok bool
					select {
					case f, ok = <-handoff:
					default:
						if met != nil {
							met.XcodePullStalls.Add(1)
						}
						f, ok = <-handoff
					}
					if !ok {
						break
					}
					got++
					if err := c.Checkpoint(); err != nil {
						release(f)
						encFailed(err)
						se.Abort()
						return err
					}
					if err := se.Push(f); err != nil {
						release(f) // Push failed before taking custody
						encFailed(err)
						se.Abort()
						return err
					}
				}
				if got < seq.Frames {
					// The decoder aborted mid-stream; report success here so
					// its failure (the root cause) becomes the job error.
					se.Abort()
					return nil
				}
				out, stats, err = se.Close()
				if err != nil {
					encFailed(err)
					return err
				}
				return nil
			},
		}
		err := kpn.RunContext(ctx, g, funcs, kpn.WithGate(gate))
		// Both tasks have returned: frames still sitting in the handoff
		// were delivered (decoder stake already retired on unwind) but
		// never reached the encoder — drop their encoder stake here.
		for f := range handoff {
			release(f)
		}
		if met != nil {
			storeMax(&met.XcodePeakFrames, track.peak.Load())
		}
		if err != nil {
			return Result{}, err
		}
		meta := seqMeta(seq, seq.Frames)
		meta["X-Seq-Q"] = strconv.Itoa(q)
		meta["X-Seq-Bits"] = strconv.Itoa(stats.TotalBits())
		meta["X-Transcode-Peak-Frames"] = strconv.FormatInt(track.peak.Load(), 10)
		return Result{Body: out, Meta: meta}, nil
	}
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
