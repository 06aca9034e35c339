package serve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// startGroup runs tasks as the body of a job and starts it the way the
// scheduler's first slice does. The gate is still closed.
func startGroup(ctx context.Context, tasks ...task) *Job {
	j := NewJob("t", KindDecode, ctx, func(ctx context.Context, gate *Gate) (Result, error) {
		return Result{}, runTasks(ctx, gate, tasks...)
	})
	go j.run()
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
// never-started orphans release the job's context like Job.run does.
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

// stepper is a task body the test drives one checkpoint at a time: it
// waits for a step, passes a checkpoint, acknowledges, and returns nil
// when step is closed.
type stepper struct {
	step   chan struct{}
	ack    chan struct{}
	starts int
}

func newStepper() *stepper {
	return &stepper{step: make(chan struct{}), ack: make(chan struct{})}
}

func (s *stepper) task(name string) task {
	return task{name, func(g *group) error {
		s.starts++
		for range s.step {
			if err := g.checkpoint(); err != nil {
				return err
			}
			s.ack <- struct{}{}
		}
		return nil
	}}
}

func threeSteppers() ([]*stepper, []task) {
	ss := []*stepper{newStepper(), newStepper(), newStepper()}
	return ss, []task{ss[0].task("a"), ss[1].task("b"), ss[2].task("c")}
}

// TestTaskGroup checks the job runtime against the properties the
// scheduler and the transcode's span tasks lean on, and that every way a
// group can end leaves no goroutine behind.
func TestTaskGroup(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		// Closing the gate parks every task at its next checkpoint without
		// unwinding it; reopening resumes each in place.
		{"pause-resume", func(t *testing.T) {
			ss, tasks := threeSteppers()
			j := startGroup(context.Background(), tasks...)
			j.gate.Open()
			for _, s := range ss {
				s.step <- struct{}{}
				<-s.ack
			}
			j.gate.Close()
			for _, s := range ss {
				s.step <- struct{}{} // sent after Close: this checkpoint must park
			}
			for i, s := range ss {
				select {
				case <-s.ack:
					t.Fatalf("task %d passed a checkpoint while the gate was closed", i)
				case <-j.Done():
					t.Fatalf("the group unwound at a closed gate: %v", j.err)
				case <-time.After(20 * time.Millisecond):
				}
			}
			j.gate.Open()
			for _, s := range ss {
				<-s.ack
				close(s.step)
			}
			if err := finishGroup(t, j); err != nil {
				t.Fatalf("group: %v", err)
			}
			for i, s := range ss {
				if s.starts != 1 {
					t.Errorf("task %d started %d times, want 1 (resumed in place)", i, s.starts)
				}
			}
		}},
		{"panic-inline", func(t *testing.T) { panicTask(t, 0) }},
		{"panic-spawned", func(t *testing.T) { panicTask(t, 1) }},
		// The request dying while the whole group is parked unwinds it with
		// the context's own error: a deadline stays a deadline (504), never
		// Canceled (499).
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
			// A goroutine that has signalled its end may not have exited yet.
			for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(wait) {
					t.Fatalf("%d goroutines after the group ended, %d before it started", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// deadWhileParked parks three tasks at a gate that never opens, calls
// kill, and wants the group to unwind with the context's error want.
func deadWhileParked(t *testing.T, ctx context.Context, kill func(), want error) {
	ss, tasks := threeSteppers()
	j := startGroup(ctx, tasks...)
	for _, s := range ss {
		s.step <- struct{}{}
	}
	kill()
	err := finishGroup(t, j)
	if !errors.Is(err, want) {
		t.Fatalf("group = %v, want %v", err, want)
	}
	if want != context.Canceled && errors.Is(err, context.Canceled) {
		t.Fatalf("group = %v: the deadline was reported as a cancellation", err)
	}
}

// panicTask runs two tasks, the one at index bad panicking at its first
// step; the other parks at its checkpoint until the panic fails the gate.
func panicTask(t *testing.T, bad int) {
	tasks := []task{
		{"t0", func(g *group) error { return g.checkpoint() }},
		{"t1", func(g *group) error { return g.checkpoint() }},
	}
	tasks[bad].fn = func(*group) error { panic("oops") }
	j := startGroup(context.Background(), tasks...)
	err := finishGroup(t, j)
	if err == nil || !strings.Contains(err.Error(), "oops") || !strings.Contains(err.Error(), tasks[bad].name) {
		t.Fatalf("group = %v, want task %s's panic as an error", err, tasks[bad].name)
	}
}
