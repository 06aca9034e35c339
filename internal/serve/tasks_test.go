package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eclipse/internal/media"
)

// runTask runs a body that is a single loop over frames on the calling
// unit: fn calls checkpoint once per frame, and an error comes back
// wrapped with name. The two-phase transcode reference runs its encode
// phase this way.
func runTask(ctx context.Context, gate *Gate, name string, fn func(checkpoint func() error) error) error {
	if err := fn(func() error { return checkpoint(ctx, gate) }); err != nil {
		return fmt.Errorf("serve: task %s: %w", name, err)
	}
	return nil
}

// startGroup forks units as the one phase of a job, ties the job to its
// context the way Submit does, and starts each unit the way a worker's
// first slice does. Every gate is still closed.
func startGroup(ctx context.Context, units ...*unit) *Job {
	j := newJob("t", KindDecode, ctx)
	j.fork(nil, units...)
	j.stop = context.AfterFunc(j.ctx, func() { j.fail(j.ctx.Err()) })
	for _, u := range j.units {
		u.started = true
		go u.run()
	}
	return j
}

// finishGroup waits for the job and returns its error. A finished job
// has released its derived context, whichever way it ended.
func finishGroup(t *testing.T, j *Job) error {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the group did not unwind")
	}
	released(t, j)
	_, err := j.Result()
	return err
}

// released checks a job that reached a terminal state has released its
// derived context rather than staying registered with its parent.
func released(t *testing.T, j *Job) {
	t.Helper()
	if j.ctx.Err() == nil {
		t.Error("a terminal job still holds its derived context")
	}
}

// TestJobContextReleased covers the terminal paths that never run the
// job's body: both Submit rejections and a hard-stop Drain's
// never-started orphans release the job's context like a job's end does.
func TestJobContextReleased(t *testing.T) {
	t.Run("queue-full", func(t *testing.T) {
		s := NewScheduler(Config{Workers: 1, Tenants: []TenantConfig{{Name: "t", Weight: 1, QueueCap: 1}}}, NewMetrics())
		release := make(chan struct{})
		if err := s.Submit(blockedJob("t", release)); err != nil {
			t.Fatal(err)
		}
		j := slowJob("t", 0)
		var qf *QueueFullError
		if err := s.Submit(j); !errors.As(err, &qf) {
			t.Fatalf("Submit = %v, want *QueueFullError", err)
		}
		released(t, j)
		close(release)
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("draining", func(t *testing.T) {
		s := NewScheduler(Config{Workers: 1}, NewMetrics())
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		j := slowJob("t", 0)
		if err := s.Submit(j); err != ErrDraining {
			t.Fatalf("Submit = %v, want ErrDraining", err)
		}
		released(t, j)
	})
	t.Run("drain-orphan", func(t *testing.T) {
		// One worker held by a job whose slice outlasts the test, so the
		// job queued behind it is still unstarted at the hard stop.
		s := NewScheduler(Config{Workers: 1, BaseSlice: time.Minute}, NewMetrics())
		running, release := make(chan struct{}), make(chan struct{})
		holder := NewJob("t", KindDecode, context.Background(), func(context.Context, *Gate) (Result, error) {
			close(running)
			<-release
			return Result{}, nil
		})
		if err := s.Submit(holder); err != nil {
			t.Fatal(err)
		}
		<-running
		orphan := slowJob("t", 0)
		if err := s.Submit(orphan); err != nil {
			t.Fatal(err)
		}
		go func() {
			<-orphan.Done() // failed by the hard stop: now let the worker go
			close(release)
		}()
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		if err := s.Drain(expired); err != context.Canceled {
			t.Fatalf("Drain = %v, want context.Canceled", err)
		}
		if _, err := orphan.Result(); err != ErrDraining {
			t.Fatalf("orphan = %v, want ErrDraining (it must never have started)", err)
		}
		released(t, orphan)
	})
}

// stepper is a unit body the test drives one checkpoint at a time: it
// waits for a step, passes a checkpoint, acknowledges, and returns nil
// when step is closed.
type stepper struct {
	step   chan struct{}
	ack    chan struct{}
	starts int
	u      *unit
}

func newStepper(name string) *stepper {
	s := &stepper{step: make(chan struct{}), ack: make(chan struct{})}
	s.u = &unit{name: name, fn: func(ctx context.Context, gate *Gate) error {
		s.starts++
		for range s.step {
			if err := checkpoint(ctx, gate); err != nil {
				return err
			}
			s.ack <- struct{}{}
		}
		return nil
	}}
	return s
}

// threeSteppers starts three stepper units as one job, runs each through
// one checkpoint, then closes every gate and steps each again, so all
// three are parked at a checkpoint inside their bodies.
func threeSteppers(ctx context.Context) ([]*stepper, *Job) {
	ss := []*stepper{newStepper("a"), newStepper("b"), newStepper("c")}
	j := startGroup(ctx, ss[0].u, ss[1].u, ss[2].u)
	for _, s := range ss {
		s.u.gate.Open()
		s.step <- struct{}{}
		<-s.ack
		s.u.gate.Close()
	}
	for _, s := range ss {
		s.step <- struct{}{} // sent after Close: this checkpoint must park
	}
	return ss, j
}

// TestTaskGroup checks the unit runtime against the properties the
// scheduler and a transcode's span units lean on, and that every way a
// job of several units can end leaves no goroutine behind.
func TestTaskGroup(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		// Closing a gate parks its unit at the next checkpoint without
		// unwinding it; reopening resumes it in place.
		{"pause-resume", func(t *testing.T) {
			ss, j := threeSteppers(context.Background())
			for i, s := range ss {
				select {
				case <-s.ack:
					t.Fatalf("unit %d passed a checkpoint while its gate was closed", i)
				case <-j.Done():
					t.Fatalf("the job unwound at closed gates: %v", j.err)
				case <-time.After(20 * time.Millisecond):
				}
			}
			for _, s := range ss {
				s.u.gate.Open()
				<-s.ack
				close(s.step)
			}
			if err := finishGroup(t, j); err != nil {
				t.Fatalf("job: %v", err)
			}
			for i, s := range ss {
				if s.starts != 1 {
					t.Errorf("unit %d started %d times, want 1 (resumed in place)", i, s.starts)
				}
			}
		}},
		// A panic in the first unit and in a sibling (the names are from
		// the inline and the spawned task of the task-group runtime).
		{"panic-inline", func(t *testing.T) { panicUnit(t, 0) }},
		{"panic-spawned", func(t *testing.T) { panicUnit(t, 1) }},
		// The request dying while every unit is parked unwinds the job
		// with the context's own error: a deadline stays a deadline (504),
		// never Canceled (499).
		{"cancel-while-parked", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			deadWhileParked(t, ctx, cancel, context.Canceled)
		}},
		{"deadline-while-parked", func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			deadWhileParked(t, ctx, func() {}, context.DeadlineExceeded)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			tc.run(t)
			waitGoroutines(t, base)
		})
	}
}

// waitGoroutines waits for the goroutine count to fall back to base: a
// goroutine that has signalled its end may not have exited yet.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(wait) {
			t.Fatalf("%d goroutines after the job ended, %d before it started", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// deadWhileParked parks three units at their checkpoints, calls kill,
// and wants the job to unwind with the context's error want.
func deadWhileParked(t *testing.T, ctx context.Context, kill func(), want error) {
	_, j := threeSteppers(ctx)
	kill()
	err := finishGroup(t, j)
	if !errors.Is(err, want) {
		t.Fatalf("job = %v, want %v", err, want)
	}
	if want != context.Canceled && errors.Is(err, context.Canceled) {
		t.Fatalf("job = %v: the deadline was reported as a cancellation", err)
	}
}

// panicUnit runs two units, the one at index bad panicking in its first
// slice; the other parks at its gate until the panic fails the job.
func panicUnit(t *testing.T, bad int) {
	units := []*unit{{name: "u0", fn: checkpoint}, {name: "u1", fn: checkpoint}}
	units[bad].fn = func(context.Context, *Gate) error { panic("oops") }
	j := startGroup(context.Background(), units...)
	units[bad].gate.Open()
	err := finishGroup(t, j)
	if err == nil || !strings.Contains(err.Error(), "oops") || !strings.Contains(err.Error(), units[bad].name) {
		t.Fatalf("job = %v, want unit %s's panic as an error", err, units[bad].name)
	}
}

// TestSpanUnits checks that the worker pool is the one width: a job's
// units run only on workers, so one worker never runs two spans between
// checkpoints, two workers do run a job's two spans side by side, and a
// hard stop with spans still queued fails the job and leaks nothing.
func TestSpanUnits(t *testing.T) {
	t.Run("one-worker", func(t *testing.T) {
		// Four spans preempted every millisecond: a gauge of span bodies
		// between two checkpoints must never read more than one.
		s := NewScheduler(Config{Workers: 1, BaseSlice: time.Millisecond}, NewMetrics())
		defer s.Drain(context.Background())
		var gauge, peak atomic.Int64
		spans := make([]*unit, 4)
		for i := range spans {
			spans[i] = &unit{name: "seg" + strconv.Itoa(i), fn: func(ctx context.Context, gate *Gate) error {
				for step := 0; step < 20; step++ {
					if err := checkpoint(ctx, gate); err != nil {
						return err
					}
					storeMax(&peak, gauge.Add(1))
					for spin := time.Now(); time.Since(spin) < 200*time.Microsecond; {
					}
					gauge.Add(-1)
				}
				return nil
			}}
		}
		j := newJob("t", KindTranscode, context.Background())
		j.fork(nil, spans...)
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		if err := finishGroup(t, j); err != nil {
			t.Fatal(err)
		}
		if peak.Load() != 1 {
			t.Errorf("%d span bodies ran at once on one worker, want 1", peak.Load())
		}
		if j.Preempts() == 0 {
			t.Log("no preemptions observed (the spans interleaved only at their ends)")
		}
	})
	t.Run("two-workers", func(t *testing.T) {
		// Each span waits, without a checkpoint, for its sibling to be
		// running too: that happens only if both hold a worker.
		s := NewScheduler(Config{Workers: 2, BaseSlice: time.Minute}, NewMetrics())
		defer s.Drain(context.Background())
		var running sync.WaitGroup
		running.Add(2)
		both := make(chan struct{})
		go func() { running.Wait(); close(both) }()
		spans := make([]*unit, 2)
		for i := range spans {
			spans[i] = &unit{name: "seg" + strconv.Itoa(i), fn: func(ctx context.Context, gate *Gate) error {
				if err := checkpoint(ctx, gate); err != nil {
					return err
				}
				running.Done()
				select {
				case <-both:
					return nil
				case <-time.After(5 * time.Second):
					return errors.New("the sibling span never ran beside this one")
				}
			}}
		}
		j := newJob("t", KindTranscode, context.Background())
		j.fork(nil, spans...)
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		if err := finishGroup(t, j); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("hard-stop-queued", func(t *testing.T) {
		// One worker: the transcode's index scan runs first, then a
		// second tenant's job holds the worker without a checkpoint, so
		// every span is still queued when the drain budget expires.
		// The order is made explicit: a first job of tenant a holds the
		// worker until both tenants are in the table, so the worker's
		// round-robin cursor goes a (the scan), then b (the holder).
		// Submitted straight away, the scan could finish before b was
		// in the table, and the cursor would pick one of a's spans next.
		base := runtime.NumGoroutine()
		stream, _ := segClip(t, 78)
		s := NewScheduler(Config{Workers: 1, BaseSlice: time.Minute}, NewMetrics())
		pool := media.NewSyncFramePool(256)
		x, err := NewTranscodeJobSegmented(context.Background(), "a", stream, 9, pool, 1, 1, 4, NewMetrics())
		if err != nil {
			t.Fatal(err)
		}
		firstRunning, letGo := make(chan struct{}), make(chan struct{})
		first := NewJob("a", KindDecode, context.Background(), func(context.Context, *Gate) (Result, error) {
			close(firstRunning)
			<-letGo
			return Result{}, nil
		})
		holding, release := make(chan struct{}), make(chan struct{})
		holder := NewJob("b", KindDecode, context.Background(), func(context.Context, *Gate) (Result, error) {
			close(holding)
			<-release
			return Result{}, nil
		})
		if err := s.Submit(first); err != nil {
			t.Fatal(err)
		}
		<-firstRunning
		for _, j := range []*Job{x, holder} {
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		close(letGo)
		<-holding
		if q := s.SnapshotTenants()[0]; q.Name != "a" || q.QueueDepth != 4 {
			t.Fatalf("tenant %s has %d queued units at the stop, want a with 4 spans", q.Name, q.QueueDepth)
		}
		go func() {
			<-x.Done()
			close(release)
		}()
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		if err := s.Drain(expired); err != context.Canceled {
			t.Fatalf("Drain = %v, want context.Canceled", err)
		}
		if _, err := x.Result(); !errors.Is(err, ErrDraining) && !errors.Is(err, context.Canceled) {
			t.Fatalf("transcode = %v, want ErrDraining or a context error", err)
		}
		if n := pool.Outstanding(); n != 0 {
			t.Errorf("pool leak after the hard stop: %d frames outstanding", n)
		}
		waitGoroutines(t, base)
	})
}

// TestDoneAfterAccounting checks that a job is fully accounted before
// its Done closes: a caller that wakes on Done must find the job's
// admission space released, its tenant's completed count and its
// kind's latency count advanced. Closing Done as the last unit retired,
// before the worker's end-of-slice accounting, left 226 and 271 of 500
// jobs unaccounted under -race and 2 of 500 at GOMAXPROCS=4.
func TestDoneAfterAccounting(t *testing.T) {
	s := NewScheduler(Config{Workers: 2}, NewMetrics())
	defer s.Drain(context.Background())
	lat := &s.met.Latency[KindDecode]
	for i := 1; i <= 500; i++ {
		j := NewJob("t", KindDecode, context.Background(), func(context.Context, *Gate) (Result, error) {
			return Result{}, nil
		})
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if n := s.Admitted(); n != 0 {
			t.Fatalf("job %d: %d jobs admitted after Done", i, n)
		}
		if n := lat.Count(); n != uint64(i) {
			t.Fatalf("job %d: latency count %d after Done, want %d", i, n, i)
		}
		if n := s.SnapshotTenants()[0].Completed; n != uint64(i) {
			t.Fatalf("job %d: tenant completed %d after Done, want %d", i, n, i)
		}
	}
}
