package serve

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Gate is one unit's pause/resume throttle — the scheduler's
// slice-boundary primitive. runSlice opens it for one budget slice and
// closes it at the end; the unit checks it at its checkpoints (once per
// frame), the software analogue of the coprocessor processing-step
// boundary (paper Section 4.2): an Eclipse coprocessor can be switched
// to another task only between processing steps, and a served unit can
// be descheduled only between frames. Closing the gate parks the unit at
// its next checkpoint without unwinding its goroutine, and the park ends
// the slice; reopening resumes the unit in place. Fail poisons the gate
// permanently, so a failed job unwinds even while it is descheduled.
type Gate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	open   bool
	err    error
	parked chan struct{} // holds a token while the unit waits at the closed gate
}

// newGate returns a closed gate; fork makes one per unit.
func newGate() *Gate {
	g := &Gate{parked: make(chan struct{}, 1)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Open resumes the unit: if parked, it continues from its checkpoint.
func (g *Gate) Open() {
	g.mu.Lock()
	g.open = true
	select {
	case <-g.parked: // a park before this slice does not end it
	default:
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Close pauses the unit at its next checkpoint.
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
		select {
		case g.parked <- struct{}{}:
		default:
		}
		g.cond.Wait()
	}
	err := g.err
	g.mu.Unlock()
	return err
}

// checkpoint marks a task-switch boundary: it parks while the scheduler
// holds the gate closed and returns a non-nil error once the request is
// dead or a sibling unit has failed.
//
// checkpoint reads the request deadline off the clock as well as off the
// context: a loop that never blocks never enters the Go scheduler, and
// the runtime fires a busy P's timers only there, so when no P is idle
// (at GOMAXPROCS=1, always) the context's own timer lags until sysmon's
// 10 ms forced preemption — longer than most decodes take. The slice
// budget rides the same timers and can be late by the same bound, which
// lengthens a turn but breaks no contract.
func checkpoint(ctx context.Context, gate *Gate) error {
	if deadline, timed := ctx.Deadline(); timed && !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	if err := gate.Wait(); err != nil {
		return err
	}
	return ctx.Err()
}

// unit is what a worker runs: one body of a job on its own goroutine,
// parked at its own gate whenever no worker holds it. A decode or an
// encode is one unit; a transcode is its GOP-index scan, then one unit
// per span. The body calls checkpoint once per frame.
type unit struct {
	job  *Job
	name string
	fn   func(ctx context.Context, gate *Gate) error
	gate *Gate
	done chan struct{} // closed once the unit has returned and retired

	started bool // owned by the worker holding the unit
	last    bool // the unit ended its job; written before done closes
}

// run is the unit's goroutine: wait for the first slice, run the body (a
// failure or a panic fails the whole job), retire. A unit whose gate was
// poisoned before its first slice never runs its body.
func (u *unit) run() {
	defer close(u.done)
	err := u.gate.Wait()
	if err == nil {
		err = guard(u.name, func() error { return u.fn(u.job.ctx, u.gate) })
	}
	u.job.fail(err)
	u.last = u.job.retire()
}

// guard runs fn and names its failure, a returned error or a panic.
func guard(name string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: task %s panicked: %v", name, r)
		}
	}()
	if err = fn(); err != nil {
		err = fmt.Errorf("serve: task %s: %w", name, err)
	}
	return err
}

// fork publishes units as the job's next phase: each is scheduled on its
// own, and the one that retires last runs then (unless the job failed),
// which may fork the following phase or set the job's result. Submit
// queues the first phase; later ones go straight into the tenant queue.
func (j *Job) fork(then func() error, us ...*unit) {
	j.mu.Lock()
	j.then = then
	j.live += len(us)
	for _, u := range us {
		u.job, u.gate, u.done = j, newGate(), make(chan struct{})
		u.gate.Fail(j.failed)
		j.units = append(j.units, u)
	}
	j.mu.Unlock()
	if j.sched != nil {
		j.sched.publish(us)
	}
}

// fail records the job's first failure and poisons every unit's gate,
// so all of them unwind at their next checkpoint. fail(nil) does nothing.
func (j *Job) fail(err error) {
	j.mu.Lock()
	if j.failed == nil && err != nil {
		j.failed = err
		for _, u := range j.units {
			u.gate.Fail(err)
		}
	}
	j.mu.Unlock()
}

// retire counts a returned unit out of its phase. The last one runs the
// phase's continuation, which holds the job open while it forks, and if
// nothing further was forked, ends the job and releases its derived
// context; retire reports whether it did. A scheduled job's Done closes
// only once the worker has accounted it (Scheduler.endSlice); a job no
// scheduler admitted closes it here.
func (j *Job) retire() bool {
	for {
		j.mu.Lock()
		if j.live--; j.live > 0 {
			j.mu.Unlock()
			return false
		}
		then := j.then
		j.then = nil
		if then == nil || j.failed != nil {
			j.err = j.failed
			j.mu.Unlock()
			j.stop()
			j.cancel()
			if j.sched == nil {
				close(j.done)
			}
			return true
		}
		j.live++
		j.mu.Unlock()
		j.fail(guard("job", then))
	}
}
