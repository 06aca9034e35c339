package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Config parameterizes the serving subsystem.
type Config struct {
	// Workers is the size of the fixed executor pool — the software
	// analogue of the instance's coprocessor set. Default 2.
	Workers int
	// BaseSlice is the wall-clock budget of one scheduling slice for a
	// weight-1 tenant (the Section 5.3 cycle budget, in time). A tenant
	// of weight w gets w×BaseSlice per turn. Default 5ms.
	BaseSlice time.Duration
	// QueueCap bounds each tenant's admitted-but-unfinished jobs
	// (waiting + running). A full queue rejects new work — the
	// GetSpace-failure path. Default 8.
	QueueCap int
	// DefaultWeight is the weight of tenants not listed in Tenants.
	// Default 1.
	DefaultWeight int
	// MaxBodyBytes caps HTTP request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// FramePoolCap bounds the shared frame pool (frames retained across
	// requests). Default 256.
	FramePoolCap int
	// DecodeWorkers is the default decode width for tenants that do not
	// declare one. There is one decoder; 1 runs it serially, above 1 it
	// overlaps entropy parse with per-row reconstruction on that many
	// workers. Output is identical at every width. Default 1.
	DecodeWorkers int
	// EncodeWorkers bounds each encode/transcode job's per-frame
	// analysis fan-out (macroblock rows processed concurrently). 0 keeps
	// the media.EncodeWorkers process default (NumCPU); lower it to trade
	// single-job encode latency for cross-job isolation.
	EncodeWorkers int
	// CacheBytes is the result cache's total byte budget. 0 selects the
	// default (256 MiB); negative disables the cache entirely.
	CacheBytes int64
	// CacheMaxAge is the freshness window advertised on cached responses
	// via Cache-Control max-age: how long a downstream tier (the gateway
	// L1) may serve the bytes without an If-None-Match coherency check.
	// Content-addressed bytes never change, so the window bounds staleness
	// of residency (liveness, eviction), not of content. Default 60s.
	CacheMaxAge time.Duration
	// TranscodeSegments is the default segment fan-out for transcode
	// jobs: clips long enough and with usable closed-GOP cuts run as up
	// to this many decode→encode span tasks in parallel and the
	// bitstreams are stitched back together. 1 = one span (no index
	// scan); 0 selects min(NumCPU, 8).
	TranscodeSegments int
	// Tenants pre-declares tenants with non-default weight or capacity.
	Tenants []TenantConfig
}

// CacheMode is a tenant's result-cache override.
type CacheMode int

const (
	CacheDefault CacheMode = iota // follow the server-wide setting
	CacheOn
	CacheOff
)

// String names the mode for /varz.
func (m CacheMode) String() string {
	switch m {
	case CacheOn:
		return "on"
	case CacheOff:
		return "off"
	}
	return "default"
}

// TenantConfig declares one tenant's scheduling parameters. Zero fields
// follow the server-wide Config (see Config.resolve).
type TenantConfig struct {
	Name              string
	Weight            int       // scheduling-slice multiplier; 0 → Config.DefaultWeight
	QueueCap          int       // admission bound; 0 → Config.QueueCap
	DecodeWorkers     int       // decode width; 0 → Config.DecodeWorkers
	Cache             CacheMode // per-tenant result-cache override
	TranscodeSegments int       // segment fan-out; 0 → Config.TranscodeSegments
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.BaseSlice <= 0 {
		c.BaseSlice = 5 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8
	}
	if c.DefaultWeight <= 0 {
		c.DefaultWeight = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.FramePoolCap <= 0 {
		c.FramePoolCap = 256
	}
	if c.DecodeWorkers <= 0 {
		c.DecodeWorkers = 1
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.CacheMaxAge <= 0 {
		c.CacheMaxAge = 60 * time.Second
	}
	if c.TranscodeSegments <= 0 {
		c.TranscodeSegments = runtime.NumCPU()
		if c.TranscodeSegments > 8 {
			c.TranscodeSegments = 8
		}
	}
	return c
}

// resolve fills a tenant declaration's zero fields from the (defaulted)
// server-wide settings: the one place a tenant's effective parameters
// are decided, for declared and undeclared tenants alike. Cache stays as
// declared; CacheDefault is resolved per request (CacheEnabledFor).
func (c Config) resolve(tc TenantConfig) TenantConfig {
	if tc.Weight <= 0 {
		tc.Weight = c.DefaultWeight
	}
	if tc.QueueCap <= 0 {
		tc.QueueCap = c.QueueCap
	}
	if tc.DecodeWorkers <= 0 {
		tc.DecodeWorkers = c.DecodeWorkers
	}
	if tc.TranscodeSegments <= 0 {
		tc.TranscodeSegments = c.TranscodeSegments
	}
	return tc
}

// ErrDraining rejects submissions while the scheduler shuts down.
var ErrDraining = errors.New("serve: shutting down")

// QueueFullError is the admission-control rejection: the tenant's
// bounded queue has no space (GetSpace failed). RetryAfter estimates
// when space should free up, for the 429 Retry-After header.
type QueueFullError struct {
	Tenant     string
	Cap        int
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: tenant %q queue full (cap %d)", e.Tenant, e.Cap)
}

type schedState int

const (
	stateRunning schedState = iota
	stateDraining
	stateStopped
)

// tenant is one row of the scheduler's task table.
type tenant struct {
	cfg TenantConfig // resolved: no zero field left but Cache

	q        []*Job // admitted, waiting (including preempted jobs)
	admitted int    // waiting + running, not yet finished

	// Counters, guarded by the scheduler mutex.
	rejects   uint64
	completed uint64
	errored   uint64
	preempts  uint64
	serviceNs int64   // cumulative wall-clock execution time
	ewmaJobNs float64 // smoothed per-job service time, for Retry-After
}

// Scheduler admits jobs into bounded per-tenant queues and executes them
// on a fixed worker pool. Each worker independently runs a weighted
// round-robin loop over the tenant table with per-job time-slice budgets
// — the paper's distributed task scheduling (Section 5.3) with workers
// in place of coprocessor shells and wall-clock budgets in place of
// cycle budgets.
type Scheduler struct {
	cfg Config
	met *Metrics

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  []*tenant // stable rotation order
	byName   map[string]*tenant
	state    schedState
	admitted int // jobs in the system across all tenants

	workers sync.WaitGroup
}

// NewScheduler starts the worker pool.
func NewScheduler(cfg Config, met *Metrics) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg, met: met, byName: map[string]*tenant{}}
	s.cond = sync.NewCond(&s.mu)
	for _, tc := range cfg.Tenants {
		s.tenantLocked(tc)
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	return s
}

// tenantLocked returns the tenant tc names, creating it from tc on first
// sight (an undeclared tenant arrives as just a name). Caller holds s.mu
// or is the constructor.
func (s *Scheduler) tenantLocked(tc TenantConfig) *tenant {
	if t, ok := s.byName[tc.Name]; ok {
		return t
	}
	t := &tenant{cfg: s.cfg.resolve(tc)}
	s.tenants = append(s.tenants, t)
	s.byName[tc.Name] = t
	return t
}

// paramsFor reports a tenant's effective parameters: its resolved
// declaration if registered, else what an undeclared tenant would get.
func (s *Scheduler) paramsFor(name string) TenantConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.byName[name]; ok {
		return t.cfg
	}
	return s.cfg.resolve(TenantConfig{Name: name})
}

// DecodeWorkersFor reports the decode width for a tenant: its declared
// value if pre-registered, else the config default. Handlers call this
// before building decode/transcode jobs so each tenant's requests run
// at its configured width (1 = serial; see Config.DecodeWorkers).
func (s *Scheduler) DecodeWorkersFor(name string) int { return s.paramsFor(name).DecodeWorkers }

// TranscodeSegmentsFor reports the segment fan-out for a tenant's
// transcode jobs: its declared value if pre-registered, else the config
// default. 1 means one span.
func (s *Scheduler) TranscodeSegmentsFor(name string) int {
	return s.paramsFor(name).TranscodeSegments
}

// EncodeWorkers reports the server-wide per-job encode analysis
// fan-out (0 = the media.EncodeWorkers process default). Handlers pass
// it into encode and transcode jobs.
func (s *Scheduler) EncodeWorkers() int { return s.cfg.EncodeWorkers }

// CacheEnabledFor reports whether the result cache applies to a
// tenant's requests: the server-wide setting (CacheBytes > 0) unless
// the tenant declared an explicit on/off override.
func (s *Scheduler) CacheEnabledFor(name string) bool {
	switch s.paramsFor(name).Cache {
	case CacheOn:
		return true
	case CacheOff:
		return false
	}
	return s.cfg.CacheBytes > 0
}

// Submit admits a job or rejects it: ErrDraining during shutdown, or a
// *QueueFullError when the tenant's bounded queue has no space. A
// rejection is terminal for the job, so, like Job.run's end, it releases
// the job's derived context.
func (s *Scheduler) Submit(j *Job) error {
	s.mu.Lock()
	if s.state != stateRunning {
		s.mu.Unlock()
		j.cancel()
		return ErrDraining
	}
	t := s.tenantLocked(TenantConfig{Name: j.Tenant})
	if t.admitted >= t.cfg.QueueCap {
		t.rejects++
		ra := s.retryAfterLocked(t)
		s.mu.Unlock()
		j.cancel()
		s.met.Rejects.Add(1)
		return &QueueFullError{Tenant: t.cfg.Name, Cap: t.cfg.QueueCap, RetryAfter: ra}
	}
	t.admitted++
	s.admitted++
	j.enq = time.Now()
	t.q = append(t.q, j)
	s.mu.Unlock()
	s.met.Requests[j.Kind].Add(1)
	s.cond.Broadcast()
	return nil
}

// retryAfterLocked estimates when the tenant's queue will have space:
// the queue's worth of smoothed per-job service time, shared across the
// worker pool, floored at one second.
func (s *Scheduler) retryAfterLocked(t *tenant) time.Duration {
	est := time.Duration(t.ewmaJobNs) * time.Duration(t.admitted) / time.Duration(s.cfg.Workers)
	if est < time.Second {
		est = time.Second
	}
	return est.Round(time.Second)
}

// worker is one executor: repeatedly pick the next tenant in weighted
// round-robin order, run its head job for one budget slice, then either
// retire or preempt it.
func (s *Scheduler) worker(id int) {
	defer s.workers.Done()
	cursor := id // stagger the rotation start per worker
	for {
		j, t := s.next(&cursor)
		if j == nil {
			return
		}
		s.runSlice(j, t)
	}
}

// next blocks until a job is available (returning it and its tenant) or
// the scheduler is done (nil). The cursor implements this worker's
// round-robin position over the shared tenant table.
func (s *Scheduler) next(cursor *int) (*Job, *tenant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if n := len(s.tenants); n > 0 {
			for i := 0; i < n; i++ {
				t := s.tenants[(*cursor+i)%n]
				if len(t.q) == 0 {
					continue
				}
				*cursor = (*cursor + i + 1) % n
				j := t.q[0]
				t.q[0] = nil
				t.q = t.q[1:]
				return j, t
			}
		}
		if s.state == stateStopped || (s.state == stateDraining && s.admitted == 0) {
			return nil, nil
		}
		s.cond.Wait()
	}
}

// runSlice executes one scheduling turn: open the job's gate for up to
// weight×BaseSlice, then retire it (finished) or preempt it (gate
// closed; the job parks at its next frame checkpoint and is requeued
// behind its tenant's other work).
func (s *Scheduler) runSlice(j *Job, t *tenant) {
	budget := time.Duration(t.cfg.Weight) * s.cfg.BaseSlice
	if !j.started {
		j.started = true
		j.firstRun = time.Now()
		go j.run()
	}
	sliceStart := time.Now()
	j.gate.Open()
	timer := time.NewTimer(budget)
	select {
	case <-j.done:
		timer.Stop()
		s.finish(j, t, time.Since(sliceStart))
	case <-timer.C:
		j.gate.Close()
		select {
		case <-j.done: // finished right at the budget boundary
			s.finish(j, t, time.Since(sliceStart))
		default:
			s.preempt(j, t, time.Since(sliceStart))
		}
	}
}

// finish retires a completed job: release its admission space, record
// service and latency, and wake waiters (blocked submitters see space;
// draining workers see the count drop).
func (s *Scheduler) finish(j *Job, t *tenant, slice time.Duration) {
	j.serviceNs += int64(slice)
	latency := time.Since(j.enq)
	_, jerr := j.Result()
	s.met.Latency[j.Kind].Observe(latency)
	if jerr != nil {
		s.met.Errors[j.Kind].Add(1)
	}

	s.mu.Lock()
	t.admitted--
	s.admitted--
	t.serviceNs += j.serviceNs
	if jerr != nil {
		t.errored++
	} else {
		t.completed++
	}
	const alpha = 0.3
	if t.ewmaJobNs == 0 {
		t.ewmaJobNs = float64(j.serviceNs)
	} else {
		t.ewmaJobNs = alpha*float64(j.serviceNs) + (1-alpha)*t.ewmaJobNs
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// preempt puts a budget-exhausted job back at the tail of its tenant's
// queue. If the scheduler was hard-stopped meanwhile, the job is
// cancelled and drained instead of requeued.
func (s *Scheduler) preempt(j *Job, t *tenant, slice time.Duration) {
	j.serviceNs += int64(slice)
	j.preempts.Add(1)
	s.mu.Lock()
	if s.state == stateStopped {
		s.mu.Unlock()
		j.Cancel()
		<-j.done
		s.finish(j, t, 0)
		return
	}
	t.preempts++
	t.q = append(t.q, j)
	s.mu.Unlock()
	s.met.Preemptions.Add(1)
	s.cond.Broadcast()
}

// Drain stops admission and waits for in-flight and queued jobs to
// complete. If ctx expires first, remaining queued jobs are failed,
// running jobs are cancelled, and Drain returns ctx.Err(). Always stops
// the worker pool before returning.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.state == stateRunning {
		s.state = stateDraining
	}
	s.mu.Unlock()
	s.cond.Broadcast()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.mu.Lock()
		s.state = stateStopped
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
	}

	// Hard stop: fail everything still queued, cancel everything running.
	s.mu.Lock()
	s.state = stateStopped
	var orphans []*Job
	for _, t := range s.tenants {
		for _, j := range t.q {
			orphans = append(orphans, j)
			t.admitted--
			t.errored++
			s.admitted--
		}
		t.q = nil
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	for _, j := range orphans {
		if j.started {
			// Preempted mid-run: poison its gate; run() closes done.
			j.Cancel()
		} else {
			// Never started: fail directly so its submitter unblocks.
			j.err = ErrDraining
			j.cancel()
			close(j.done)
		}
		s.met.Errors[j.Kind].Add(1)
	}
	<-done // workers notice stateStopped (running jobs cancelled in preempt)
	return ctx.Err()
}

// SnapshotTenants returns a consistent copy of the tenant table for
// /varz and /metrics.
func (s *Scheduler) SnapshotTenants() []TenantSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, TenantSnapshot{
			Name:              t.cfg.Name,
			Weight:            t.cfg.Weight,
			QueueCap:          t.cfg.QueueCap,
			DecodeWorkers:     t.cfg.DecodeWorkers,
			CacheMode:         t.cfg.Cache.String(),
			TranscodeSegments: t.cfg.TranscodeSegments,
			QueueDepth:        len(t.q),
			Admitted:          t.admitted,
			Completed:         t.completed,
			Errors:            t.errored,
			Rejects:           t.rejects,
			Preempts:          t.preempts,
			ServiceSec:        float64(t.serviceNs) / 1e9,
			EwmaJobMs:         t.ewmaJobNs / 1e6,
		})
	}
	return out
}

// Running reports whether the scheduler still admits work. The cached
// serving path checks it so a draining server refuses new requests with
// 503 even when the answer is resident.
func (s *Scheduler) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateRunning
}

// Admitted reports jobs currently in the system.
func (s *Scheduler) Admitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitted
}

// StateString names the lifecycle state for /varz and /healthz.
func (s *Scheduler) StateString() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case stateRunning:
		return "running"
	case stateDraining:
		return "draining"
	}
	return "stopped"
}
