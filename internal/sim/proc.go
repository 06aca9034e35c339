//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"strconv"
)

// Proc is a simulated hardware process: an independent thread of control
// such as a coprocessor, a prefetch engine, or a memory port server.
//
// A Proc body runs as a coroutine of the kernel's event loop: it executes
// only between a next() issued by Kernel.Run and its own following yield
// (in Delay/Wait), so at most one Proc executes at any instant and Proc
// bodies may freely touch shared model state without locking. Time only
// advances when the body calls Delay, Sync or Wait.
type Proc struct {
	name string
	k    *Kernel
	body func(*Proc)
	// next resumes the coroutine until its next park, stop unwinds it, and
	// yield (valid inside the body) suspends it; all three come from
	// iter.Pull in start and are nil until the process is launched.
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	started bool
	done    bool

	// The step script: steps[:ns] are the delays recorded by Advance,
	// steps[:pc] those already pushed as events (pc is live only while
	// parked in play), lag the sum of the steps that have not elapsed yet.
	steps  [scriptCap]uint64
	ns, pc int
	lag    uint64

	// Wait-state bookkeeping for deadlock reports. Stored as tag + args
	// rather than a formatted string so parking never allocates (Delay is
	// the hottest operation in the simulator).
	waitKind waitKind // waitDelay: lag cycles still to go
	waitSig  *Signal  // valid when waitKind == waitSignal
}

// scriptCap is how many steps fit before Advance must play them out.
const scriptCap = 16

// waitKind tags what a parked process is blocked on.
type waitKind uint8

const (
	waitNone waitKind = iota
	waitDelay
	waitSignal
)

// waitDesc formats the wait state for deadlock reports. Only called on
// the cold error path.
func (p *Proc) waitDesc() string {
	switch p.waitKind {
	case waitDelay:
		return "delay " + strconv.FormatUint(p.lag, 10)
	case waitSignal:
		return "wait " + p.waitSig.name
	default:
		return ""
	}
}

// killProc is the panic value used to unwind a process body when the
// kernel shuts down before the body has returned.
type killProc struct{}

// NewProc registers a process with the kernel. The body starts running at
// cycle `start`. The name is used in deadlock reports and traces.
func (k *Kernel) NewProc(name string, start uint64, body func(*Proc)) *Proc {
	k.Sync()
	p := &Proc{name: name, k: k, body: body}
	k.procs = append(k.procs, p)
	k.push(start, evLaunch, p, nil)
	return p
}

// start creates the process coroutine, suspended before the body's first
// instruction; the kernel's evLaunch handler resumes it immediately after.
// The coroutine never lets a panic escape into the event loop: killProc
// (a Shutdown unwinding) is swallowed, anything else becomes the kernel's
// failure.
func (p *Proc) start() {
	p.started = true
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			if r := recover(); r != nil {
				if _, ok := r.(killProc); !ok {
					p.k.Fail(fmt.Errorf("sim: process %s panicked: %v", p.name, r))
				}
			}
		}()
		p.body(p)
		p.Sync() // steps recorded right before returning still elapse
	})
}

// park suspends the process until the event loop dispatches it again. The
// caller has already recorded the wait state and scheduled any wakeup
// event. yield returns false when Shutdown stops the coroutine instead;
// the panic unwinds the body so its deferred calls run.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killProc{})
	}
	p.waitKind = waitNone
	p.waitSig = nil
}

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the process's logical time: the kernel's cycle plus the
// recorded steps that have not elapsed (none after Delay, Sync or Wait).
func (p *Proc) Now() uint64 { return p.k.now + p.lag }

// Advance records a delay and returns without parking: the process runs
// ahead of the kernel clock until its next sync (Sync, Delay, Wait, or a
// Schedule, Fire, NewProc or Kernel.Sync it makes), which plays the steps
// back as the events Delay would have queued. Until then it must touch only
// state no callback and no other process reads or writes. Stop and Fail do
// not sync. A full script is played out first; Advance never allocates.
func (p *Proc) Advance(cycles uint64) {
	if p.k.running != p {
		panic("sim: Advance called from outside the process")
	}
	if p.ns == scriptCap {
		p.play()
	}
	p.steps[p.ns] = cycles
	p.ns++
	p.lag += cycles
}

// Sync parks the process, once, until every recorded step has elapsed.
func (p *Proc) Sync() {
	if p.k.running != p {
		panic("sim: Sync called from outside the process")
	}
	if p.ns > 0 {
		p.play()
	}
}

// play queues the first step and yields; Kernel.Run queues each next step
// as the previous one's event pops and resumes the process after the last.
func (p *Proc) play() {
	p.k.push(p.steps[0], evDispatch, p, nil)
	p.pc = 1
	p.waitKind = waitDelay
	p.park()
	p.ns, p.lag = 0, 0
}

// Delay advances simulated time by the given number of cycles, modelling
// the process being busy (or idle) for that long. Delay(0) re-schedules
// the process at the current cycle behind already-pending work.
// Delay is Advance + Sync and allocates nothing.
func (p *Proc) Delay(cycles uint64) {
	if p.k.running != p {
		panic("sim: Delay called from outside the process")
	}
	p.Advance(cycles)
	p.play()
}

// Wait blocks the process until the signal fires. If the signal fires
// multiple times before the process runs again, the wakeups coalesce.
func (p *Proc) Wait(s *Signal) {
	if p.k.running != p {
		panic("sim: Wait called from outside the process")
	}
	p.Sync()
	s.waiters = append(s.waiters, p)
	p.waitKind = waitSignal
	p.waitSig = s
	p.park()
}

// Signal is a broadcast wakeup primitive. Processes block on it with
// Proc.Wait; Fire wakes all current waiters at the present cycle.
// The zero value is not usable; create signals with NewSignal.
type Signal struct {
	k       *Kernel
	name    string
	waiters []*Proc
}

// NewSignal creates a signal. The name appears in deadlock reports.
func (k *Kernel) NewSignal(name string) *Signal {
	return &Signal{k: k, name: name}
}

// Fire wakes every process currently waiting on the signal. The waiters
// resume within the current cycle, after all previously scheduled work,
// in the order they registered (deterministic across runs). Fire
// allocates nothing: each wakeup is a typed evDispatch event, and the
// waiter slice's capacity is retained for reuse.
func (s *Signal) Fire() {
	s.k.Sync()
	for _, p := range s.waiters {
		s.k.push(0, evDispatch, p, nil)
	}
	// Truncate but keep capacity; also drop *Proc references so finished
	// processes are not pinned by the backing array.
	for i := range s.waiters {
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}
