package kpn

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// TaskFunc is the body of a software Kahn task: it reads records from its
// input ports and writes records to its output ports until done. A nil
// error return closes the task's output streams (consumers see EOF after
// draining); a non-nil return aborts the whole network.
type TaskFunc func(c *TaskCtx) error

// TaskCtx gives a task blocking access to its ports, following Kahn
// semantics: Read blocks until the requested bytes are available, Write
// blocks while the FIFO is full.
type TaskCtx struct {
	task *Task
	ins  map[string]*fifoReader
	outs map[string]*fifoWriter
}

// Read fills buf from the named input port, blocking as needed. It
// returns io.EOF when the stream ended cleanly before any byte, or
// io.ErrUnexpectedEOF when it ended mid-request.
func (c *TaskCtx) Read(port string, buf []byte) error {
	r, ok := c.ins[port]
	if !ok {
		return fmt.Errorf("kpn: task %s: no input port %q", c.task.Name, port)
	}
	return r.ReadFull(buf)
}

// ReadSome reads between 1 and len(buf) bytes from the named input port,
// blocking until at least one byte is available; it returns io.EOF at a
// cleanly ended stream. Use it for data-dependent input where the
// remaining stream length is unknown (e.g. a bit-stream tail).
func (c *TaskCtx) ReadSome(port string, buf []byte) (int, error) {
	r, ok := c.ins[port]
	if !ok {
		return 0, fmt.Errorf("kpn: task %s: no input port %q", c.task.Name, port)
	}
	return r.ReadSome(buf)
}

// Write sends data to the named output port, blocking as needed.
func (c *TaskCtx) Write(port string, data []byte) error {
	w, ok := c.outs[port]
	if !ok {
		return fmt.Errorf("kpn: task %s: no output port %q", c.task.Name, port)
	}
	return w.Write(data)
}

// Executor runs a graph functionally: one goroutine per task, FIFO per
// stream. It detects whole-network deadlock (every live task blocked on a
// stream) and reports it instead of hanging — the functional analogue of
// the cycle simulator's DeadlockError.
type Executor struct {
	g     *Graph
	funcs map[string]TaskFunc
	fifos map[*Stream]*fifo

	epoch atomic.Uint64 // bumped on every FIFO state mutation

	mu      sync.Mutex
	live    int
	blocked map[*blockedEntry]struct{}
	failure error
}

// blockedEntry describes one parked task: the FIFO it waits on and its
// wait condition (to be evaluated with that FIFO's lock held).
type blockedEntry struct {
	f     *fifo
	check func() bool
}

// DeadlockError reports that the functional network stalled.
type DeadlockError struct {
	Live int
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("kpn: network deadlock (%d live tasks all blocked)", e.Live)
}

// Run validates the graph, binds each task to funcs[task.Name] (falling
// back to funcs[task.Fn]), executes the network, and returns the first
// failure (task error or deadlock) or nil when all tasks finish.
func Run(g *Graph, funcs map[string]TaskFunc) error {
	if err := g.Validate(); err != nil {
		return err
	}
	e := &Executor{g: g, funcs: funcs, fifos: map[*Stream]*fifo{}, blocked: map[*blockedEntry]struct{}{}}
	for _, t := range g.Tasks {
		if e.fn(t) == nil {
			return fmt.Errorf("kpn: no function for task %s (fn %s)", t.Name, t.Fn)
		}
	}
	for _, s := range g.Streams {
		if err := checkCapacity(s); err != nil {
			return err
		}
		e.fifos[s] = newFIFO(s.BufBytes, len(s.To), e)
	}
	var wg sync.WaitGroup
	e.live = len(g.Tasks)
	for _, t := range g.Tasks {
		ctx := e.bind(t)
		fn := e.fn(t)
		wg.Add(1)
		go func(t *Task) {
			defer wg.Done()
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("kpn: task %s panicked: %v", t.Name, r)
					}
				}()
				return fn(ctx)
			}()
			if err != nil {
				e.fail(fmt.Errorf("kpn: task %s: %w", t.Name, err))
			}
			// Close this task's output streams so consumers can drain.
			for _, w := range ctx.outs {
				w.Close()
			}
			e.taskDone()
		}(t)
	}
	wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failure
}

// fn resolves the function for a task: by task name first, then by Kahn
// function name.
func (e *Executor) fn(t *Task) TaskFunc {
	if f, ok := e.funcs[t.Name]; ok {
		return f
	}
	return e.funcs[t.Fn]
}

// bind builds a task's port endpoints.
func (e *Executor) bind(t *Task) *TaskCtx {
	ctx := &TaskCtx{task: t, ins: map[string]*fifoReader{}, outs: map[string]*fifoWriter{}}
	for _, p := range t.Ports {
		ref := PortRef{Task: t.Name, Port: p.Name}
		s := e.g.StreamFor(ref)
		f := e.fifos[s]
		if p.Dir == Out {
			ctx.outs[p.Name] = &fifoWriter{f: f, name: ref.String()}
			continue
		}
		for i, c := range s.To {
			if c == ref {
				ctx.ins[p.Name] = &fifoReader{f: f, idx: i, name: ref.String()}
			}
		}
	}
	return ctx
}

// taskBlocked is called (with the fifo's lock held) before a task parks.
// When every live task is parked it triggers asynchronous deadlock
// verification; the verdict is only reached if every parked task's wait
// condition is false and no FIFO mutates meanwhile, which excludes the
// transient "woken but not yet scheduled" state.
func (e *Executor) taskBlocked(f *fifo, check func() bool) *blockedEntry {
	ent := &blockedEntry{f: f, check: check}
	e.mu.Lock()
	e.blocked[ent] = struct{}{}
	trigger := len(e.blocked) == e.live && e.failure == nil
	e.mu.Unlock()
	if trigger {
		go e.verifyDeadlock()
	}
	return ent
}

// taskUnblocked is called after a task resumes.
func (e *Executor) taskUnblocked(ent *blockedEntry) {
	e.mu.Lock()
	delete(e.blocked, ent)
	e.mu.Unlock()
}

// taskDone retires a live task and re-checks for deadlock among the rest.
func (e *Executor) taskDone() {
	e.mu.Lock()
	e.live--
	trigger := e.live > 0 && len(e.blocked) == e.live && e.failure == nil
	e.mu.Unlock()
	if trigger {
		go e.verifyDeadlock()
	}
}

// verifyDeadlock confirms that every live task is hopelessly blocked. A
// parked task whose wait condition holds has a pending wakeup (its waker
// mutated state, and hence bumped the epoch, before broadcasting), so any
// true condition or epoch movement vetoes the verdict.
func (e *Executor) verifyDeadlock() {
	ep := e.epoch.Load()
	e.mu.Lock()
	if e.failure != nil || e.live == 0 || len(e.blocked) != e.live {
		e.mu.Unlock()
		return
	}
	ents := make([]*blockedEntry, 0, len(e.blocked))
	for ent := range e.blocked {
		ents = append(ents, ent)
	}
	live := e.live
	e.mu.Unlock()

	for _, ent := range ents {
		ent.f.mu.Lock()
		ok := ent.check()
		ent.f.mu.Unlock()
		if ok {
			return // pending wakeup: not a deadlock
		}
	}
	e.mu.Lock()
	dead := e.failure == nil && e.epoch.Load() == ep && e.live == live && len(e.blocked) == live
	if dead {
		e.failure = &DeadlockError{Live: live}
	}
	e.mu.Unlock()
	if dead {
		e.poisonAll()
	}
}

// fail records the first failure and poisons the network.
func (e *Executor) fail(err error) {
	e.mu.Lock()
	if e.failure == nil {
		e.failure = err
	}
	e.mu.Unlock()
	e.poisonAll()
}

func (e *Executor) poisonAll() {
	e.mu.Lock()
	err := e.failure
	e.mu.Unlock()
	for _, f := range e.fifos {
		f.fail(err)
	}
}
