package serve

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Gate is a job's pause/resume throttle — the scheduler's slice-boundary
// primitive. runSlice opens it for one budget slice and closes it at the
// end; the job's tasks check it at their checkpoints (once per frame),
// the software analogue of the coprocessor processing-step boundary
// (paper Section 4.2): an Eclipse coprocessor can be switched to another
// task only between processing steps, and a served job can be
// descheduled only between frames. Closing the gate parks every task of
// the job at its next checkpoint without unwinding the goroutines;
// reopening resumes them in place.
//
// One Gate spans all of a job's sequential phases (index scan, then
// span tasks; decode, then encode), so pausing and resuming act
// on the whole job regardless of which phase is active. Fail poisons the
// gate permanently: parked and future waiters return the error, letting
// a cancelled or failed job unwind even while it is descheduled.
type Gate struct {
	mu   sync.Mutex
	cond *sync.Cond
	open bool
	err  error
}

// newGate returns a closed gate; NewJob makes one per job.
func newGate() *Gate {
	g := &Gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Open resumes the job: parked tasks continue from their checkpoint.
func (g *Gate) Open() {
	g.mu.Lock()
	g.open = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Close pauses the job at the next checkpoint of each task.
func (g *Gate) Close() {
	g.mu.Lock()
	g.open = false
	g.mu.Unlock()
}

// Fail poisons the gate: every current and future Wait returns err.
// The first error wins; Fail(nil) poisons nothing.
func (g *Gate) Fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Wait blocks while the gate is closed. It returns nil when the gate is
// (or becomes) open, or the poison error if the gate failed.
func (g *Gate) Wait() error {
	g.mu.Lock()
	for !g.open && g.err == nil {
		g.cond.Wait()
	}
	err := g.err
	g.mu.Unlock()
	return err
}

// task is one named body of a job phase.
type task struct {
	name string
	fn   func(g *group) error
}

// group is what the tasks of one runTasks call share: the request's
// context, the gate they park at, and the group's first failure.
type group struct {
	ctx  context.Context
	gate *Gate

	once sync.Once
	err  error
}

// checkpoint marks a task-switch boundary: it parks while the scheduler
// holds the gate closed and returns a non-nil error once the request is
// dead or a sibling task has failed.
//
// checkpoint reads the request deadline off the clock as well as off the
// context: a loop that never blocks never enters the Go scheduler, and
// the runtime fires a busy P's timers only there, so when no P is idle
// (at GOMAXPROCS=1, always) the context's own timer lags until sysmon's
// 10 ms forced preemption — longer than most decodes take. The slice
// budget rides the same timers and can be late by the same bound, which
// lengthens a turn but breaks no contract. (runtime.Gosched here would
// cover both, but queues the job behind every other job's runnable
// goroutines at each frame.)
func (g *group) checkpoint() error {
	if deadline, timed := g.ctx.Deadline(); timed && !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	if err := g.gate.Wait(); err != nil {
		return err
	}
	return g.ctx.Err()
}

// fail records the group's first failure and poisons the gate, so every
// sibling unwinds at its next checkpoint.
func (g *group) fail(err error) {
	g.once.Do(func() {
		g.err = err
		g.gate.Fail(err)
	})
}

// run executes one task; an error or a panic fails the group.
func (g *group) run(t task) {
	defer func() {
		if r := recover(); r != nil {
			g.fail(fmt.Errorf("serve: task %s panicked: %v", t.name, r))
		}
	}()
	if err := t.fn(g); err != nil {
		g.fail(fmt.Errorf("serve: task %s: %w", t.name, err))
	}
}

// runTasks runs one phase of a job: the first task on the calling
// goroutine (the job's own), the others beside it, all parking at gate
// whenever the scheduler closes it. It returns once every task has, with
// the first failure — a task's error or panic — wrapped with that task's
// name. A dying request is such a failure too: the job poisons its gate
// when its context dies (Job.run), so the first task to reach a
// checkpoint reports the context's own error.
func runTasks(ctx context.Context, gate *Gate, tasks ...task) error {
	g := &group{ctx: ctx, gate: gate}
	var wg sync.WaitGroup
	for _, t := range tasks[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.run(t)
		}()
	}
	g.run(tasks[0])
	wg.Wait()
	return g.err
}

// runTask is runTasks for a job body that is a single loop over frames
// (decode, encode, the GOP-index scan): fn calls checkpoint once per
// frame.
func runTask(ctx context.Context, gate *Gate, name string, fn func(checkpoint func() error) error) error {
	return runTasks(ctx, gate, task{name, func(g *group) error { return fn(g.checkpoint) }})
}
