package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Config parameterizes the serving subsystem.
type Config struct {
	// Workers is the size of the fixed executor pool — the software
	// analogue of the instance's coprocessor set — and the one width:
	// at most Workers units run at once, and a transcode splits into at
	// most Workers spans. Default 2.
	Workers int
	// BaseSlice is the wall-clock budget of one scheduling slice for a
	// weight-1 tenant (the Section 5.3 cycle budget, in time). A tenant
	// of weight w gets w×BaseSlice per turn. Default 5ms.
	BaseSlice time.Duration
	// QueueCap bounds each tenant's admitted-but-unfinished jobs
	// (waiting + running). A full queue rejects new work — the
	// GetSpace-failure path. Default 8.
	QueueCap int
	// MaxBodyBytes caps HTTP request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// FramePoolCap bounds the shared frame pool (frames retained across
	// requests). Default 256.
	FramePoolCap int
	// CacheBytes is the result cache's total byte budget. 0 selects the
	// default (256 MiB); negative disables the cache entirely. Cached
	// responses are immutable (ImmutableCacheControl): there is no
	// freshness window to configure.
	CacheBytes int64
	// Tenants pre-declares tenants with non-default weight or capacity.
	Tenants []TenantConfig
}

// CacheMode is a tenant's result-cache override.
type CacheMode int

const (
	cacheDefault CacheMode = iota // follow the server-wide setting
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
	Name     string
	Weight   int       // scheduling-slice multiplier; 0 → 1
	QueueCap int       // admission bound; 0 → Config.QueueCap
	Cache    CacheMode // per-tenant result-cache override
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
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.FramePoolCap <= 0 {
		c.FramePoolCap = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	return c
}

// resolve fills a tenant declaration's zero fields from the (defaulted)
// server-wide settings: the one place a tenant's effective parameters
// are decided, for declared and undeclared tenants alike. Cache stays as
// declared; cacheDefault is resolved per request (CacheEnabledFor).
func (c Config) resolve(tc TenantConfig) TenantConfig {
	if tc.Weight <= 0 {
		tc.Weight = 1
	}
	if tc.QueueCap <= 0 {
		tc.QueueCap = c.QueueCap
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

	q        []*unit // runnable units, waiting (including preempted ones)
	admitted int     // jobs waiting + running, not yet finished

	// Counters, guarded by the scheduler mutex.
	rejects   uint64
	completed uint64
	errored   uint64
	preempts  uint64
	serviceNs int64   // cumulative wall-clock execution time
	ewmaJobNs float64 // smoothed per-job service time, for Retry-After
}

// Scheduler admits jobs into bounded per-tenant queues and executes
// their units on a fixed worker pool. Each worker independently runs a
// weighted round-robin loop over the tenant table with per-unit
// time-slice budgets — the paper's distributed task scheduling (Section
// 5.3) with workers in place of coprocessor shells, units in place of
// tasks and wall-clock budgets in place of cycle budgets.
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

// DecodeWorkersFor returns 1: the decoder is serial. It exists only for
// the benchmark rig.
func (s *Scheduler) DecodeWorkersFor(string) int { return 1 }

// TranscodeSegmentsFor returns Workers, the span cap of every
// transcode. It exists only for the benchmark rig.
func (s *Scheduler) TranscodeSegmentsFor(string) int { return s.cfg.Workers }

// EncodeWorkers returns 1: the encoder is serial. It exists only for
// the benchmark rig.
func (s *Scheduler) EncodeWorkers() int { return 1 }

// CacheEnabledFor reports whether the result cache applies to a
// tenant's requests: the server-wide setting (CacheBytes > 0) unless
// the tenant declared an explicit on/off override.
func (s *Scheduler) CacheEnabledFor(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	var mode CacheMode // an undeclared tenant follows the server
	if t, ok := s.byName[name]; ok {
		mode = t.cfg.Cache
	}
	switch mode {
	case CacheOn:
		return true
	case CacheOff:
		return false
	}
	return s.cfg.CacheBytes > 0
}

// Submit admits a job and queues its first units, or rejects it:
// ErrDraining during shutdown, or a *QueueFullError when the tenant's
// bounded queue has no space. A rejection is terminal for the job, so,
// like the job's end, it releases the job's derived context. From
// admission to its end, a dead context fails the job, poisoning every
// gate, so a unit parked at a closed gate still unwinds on a client
// disconnect, a deadline, Cancel or a hard stop, with the context's own
// error.
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
	j.sched, j.row = s, t
	j.stop = context.AfterFunc(j.ctx, func() { j.fail(j.ctx.Err()) })
	t.q = append(t.q, j.units...)
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

// publish queues a running job's next phase behind its tenant's other
// work. After a hard stop no worker will run the units, so they are
// abandoned instead.
func (s *Scheduler) publish(us []*unit) {
	s.mu.Lock()
	if s.state == stateStopped {
		s.mu.Unlock()
		for _, u := range us {
			s.abandon(u)
		}
		return
	}
	t := us[0].job.row
	t.q = append(t.q, us...)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// worker is one executor: repeatedly pick the next tenant in weighted
// round-robin order and run its head unit for one budget slice.
func (s *Scheduler) worker(id int) {
	defer s.workers.Done()
	cursor := id // stagger the rotation start per worker
	for {
		u := s.next(&cursor)
		if u == nil {
			return
		}
		s.runSlice(u)
	}
}

// next blocks until a unit is available (returning it) or the scheduler
// is done (nil). The cursor implements this worker's round-robin
// position over the shared tenant table.
func (s *Scheduler) next(cursor *int) *unit {
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
				u := t.q[0]
				t.q[0] = nil
				t.q = t.q[1:]
				return u
			}
		}
		if s.state == stateStopped || (s.state == stateDraining && s.admitted == 0) {
			return nil
		}
		s.cond.Wait()
	}
}

// runSlice executes one scheduling turn: open the unit's gate for up to
// weight×BaseSlice, then close it. The slice ends only once the unit has
// parked at its next frame checkpoint or returned, so no more units run
// at once than there are workers.
func (s *Scheduler) runSlice(u *unit) {
	budget := time.Duration(u.job.row.cfg.Weight) * s.cfg.BaseSlice
	if !u.started {
		u.started = true
		go u.run()
	}
	sliceStart := time.Now()
	u.gate.Open()
	timer := time.NewTimer(budget)
	parked := false
	select {
	case <-u.done:
		timer.Stop()
	case <-timer.C:
		u.gate.Close()
		select {
		case <-u.done: // returned before its next checkpoint
		case <-u.gate.parked:
			parked = true
		}
	}
	s.endSlice(u, time.Since(sliceStart), parked)
}

// endSlice charges a slice to the unit's job and tenant. A parked unit
// is preempted: requeued behind its tenant's other work, or abandoned if
// the scheduler was hard-stopped meanwhile. A returned unit that ended
// its job retires the job: release its admission space, count it,
// record latency, and only then close Done, so a caller that wakes on
// Done finds its job in every counter; then wake waiters (blocked
// submitters see space; draining workers see the count drop).
func (s *Scheduler) endSlice(u *unit, slice time.Duration, parked bool) {
	j, t := u.job, u.job.row
	s.mu.Lock()
	j.serviceNs += int64(slice)
	t.serviceNs += int64(slice)
	switch {
	case parked && s.state == stateStopped:
		s.mu.Unlock()
		s.abandon(u)
		return
	case parked:
		j.preempts.Add(1)
		t.preempts++
		t.q = append(t.q, u)
		s.met.Preemptions.Add(1)
	case u.last:
		t.admitted--
		s.admitted--
		if _, err := j.Result(); err != nil {
			t.errored++
			s.met.Errors[j.Kind].Add(1)
		} else {
			t.completed++
		}
		if t.ewmaJobNs == 0 {
			t.ewmaJobNs = float64(j.serviceNs)
		}
		t.ewmaJobNs += 0.3 * (float64(j.serviceNs) - t.ewmaJobNs) // alpha 0.3
		s.met.Latency[j.Kind].Observe(time.Since(j.enq))
		defer close(j.done)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// abandon ends a unit no worker will run again: its job fails with
// ErrDraining, a parked unit unwinds, and one that never started returns
// at its gate without running its body.
func (s *Scheduler) abandon(u *unit) {
	u.job.fail(ErrDraining)
	if !u.started {
		u.started = true
		u.run()
	}
	<-u.done
	s.endSlice(u, 0, false)
}

// Drain stops admission and waits for in-flight and queued jobs to
// complete. If ctx expires first, every job with a queued unit fails
// with ErrDraining, running units are abandoned at the end of their
// slice, and Drain returns ctx.Err(). Always stops the worker pool
// before returning.
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

	// Hard stop: abandon everything still queued; running units are
	// abandoned when their slice ends.
	s.mu.Lock()
	s.state = stateStopped
	var orphans []*unit
	for _, t := range s.tenants {
		orphans = append(orphans, t.q...)
		t.q = nil
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	for _, u := range orphans {
		s.abandon(u)
	}
	<-done
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
			Name:       t.cfg.Name,
			Weight:     t.cfg.Weight,
			QueueCap:   t.cfg.QueueCap,
			CacheMode:  t.cfg.Cache.String(),
			QueueDepth: len(t.q),
			Admitted:   t.admitted,
			Completed:  t.completed,
			Errors:     t.errored,
			Rejects:    t.rejects,
			Preempts:   t.preempts,
			ServiceSec: float64(t.serviceNs) / 1e9,
			EwmaJobMs:  t.ewmaJobNs / 1e6,
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
