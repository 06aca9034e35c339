// Package sim implements a deterministic discrete-event simulation kernel
// with cycle granularity, used as the substrate for the cycle-accurate
// Eclipse architecture model.
//
// The kernel advances a single global cycle counter (one cycle corresponds
// to one coprocessor clock cycle, 150 MHz in the paper's first instance).
// Two kinds of activity exist:
//
//   - Events: callbacks scheduled at an absolute cycle. Events scheduled
//     for the same cycle run in scheduling order, so simulation is fully
//     deterministic.
//   - Processes: hardware threads of control (one per coprocessor, per
//     prefetch engine, per memory port, ...). Each process body runs as a
//     runtime coroutine (iter.Pull) that the kernel's event loop resumes
//     one at a time, so process code may use ordinary sequential control
//     flow (like the paper's coprocessor pseudo-code) without any data
//     races or nondeterminism.
//
// # One loop, coroutine processes, steps and switches (hot path)
//
// Kernel.Run is the one and only event loop. It pops events in (cycle,
// seq) order on the goroutine that called Run; a callback runs inline, and
// a dispatch or launch resumes the target process with next() and gets
// control back when that process parks (Delay/Wait call yield) or its body
// returns. The single-owner invariant follows directly: model state is
// touched only by the loop itself or between a next() and the matching
// yield, never by two goroutines at once. A process goroutine never pops an
// event, runs a callback or resumes another process.
//
// The switch pair is the expensive part of a delay, the event is cheap, so
// a process may run ahead of the clock: Advance(d) records a step in a
// small fixed script inside the Proc and returns, Sync pushes the first
// step and parks once, Delay is Advance + Sync. When the loop pops the
// dispatch of a process with steps left it pushes the next step itself and
// moves on; only the last step's dispatch calls next(). Every event the
// all-Delay program queues is still queued, at the same kernel instant and
// hence with the same seq, so the executed (cycle, seq, kind, target)
// sequence, Events() and every cycle count are unchanged; only switches
// go. Summing the steps into one Delay is not equivalent: the merged
// wake-up takes its same-cycle place when the first step is issued, not
// the last (Fig. 10: 478193 cycles / 517147 events, not 478139 / 614561).
// Advance's caller owes privacy until its next sync; Delay, Wait, Schedule,
// Fire and NewProc sync when the running process calls them, and
// Kernel.Sync does it for models that hold no *Proc.
//
// next/yield are runtime coroswitches: control passes goroutine to
// goroutine without going through the Go scheduler's run queues, so no
// idle P is woken and no futex is touched — which a channel send/receive
// per dispatch does pay, and which made a strictly sequential Fig. 10 run
// burn more CPU time than wall time (DESIGN.md has the profile and the
// before/after table). iter needs a Go ≥ 1.23 toolchain; proc.go carries
// a go1.23 build constraint for it, and the go directive stays at 1.22
// because the benchmark rig's module pins that line.
//
// # Event representation (hot path)
//
// Events are typed values, not closures: an event carries a kind tag
// (evCallback, evDispatch, evLaunch) plus a *Proc target, so the dominant
// operations — Proc.Delay, Signal.Fire, and process launch — schedule
// events without allocating. Only Kernel.Schedule (arbitrary callbacks,
// the cold path) carries a func() payload supplied by the caller.
//
// Pending events live in one of two structures:
//
//   - a timing wheel of wheelSize per-cycle buckets for near events
//     (delay < wheelSize — bus latencies, message latencies, coprocessor
//     cycle budgets all land here), giving O(1) insertion with no
//     comparisons, and
//   - a value-based binary min-heap (no interface{} boxing) ordered by
//     (cycle, seq) for far-future events.
//
// The run loop merges the two sources by (cycle, seq), so the execution
// order is bit-identical to a single global priority queue: same-cycle
// events run in scheduling order regardless of which structure holds them.
//
// The kernel is not safe for concurrent use from outside its processes;
// independent kernels on independent goroutines are fine (that is how the
// parallel design-space sweeps run).
package sim

import (
	"fmt"
	"sort"
)

// wheelSize is the span of the short-delay timing wheel in cycles. It must
// be a power of two. Delays in [0, wheelSize) take the O(1) bucket path;
// longer delays fall back to the heap. All pending wheel events satisfy
// at ∈ [now, now+wheelSize), so each bucket holds at most one distinct
// cycle at any time.
const wheelSize = 64

// evKind tags a typed event with the action the kernel performs when the
// event's cycle arrives.
type evKind uint8

const (
	// evCallback runs an arbitrary func() (Kernel.Schedule).
	evCallback evKind = iota
	// evDispatch resumes a parked process or queues its next recorded step.
	evDispatch
	// evLaunch starts a process body for the first time (Kernel.NewProc).
	evLaunch
)

// event is a typed, value-stored simulation event. For evDispatch and
// evLaunch only p is set; for evCallback only fn is set.
type event struct {
	at   uint64
	seq  uint64 // tie-breaker: schedule order
	p    *Proc
	fn   func()
	kind evKind
}

// eventHeap is a value-based binary min-heap ordered by (at, seq). It
// deliberately avoids container/heap, whose interface{}-typed Push/Pop
// box every element and defeat the zero-alloc fast path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release *Proc / func() references
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Kernel is a discrete-event simulator instance. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now      uint64
	seq      uint64
	executed uint64 // total events executed, for events/sec reporting

	// wheel buckets hold near events (at - now < wheelSize) keyed by
	// at % wheelSize; wheelLen counts events across all buckets so the
	// run loop can skip the slot scan entirely when the wheel is empty.
	wheel    [wheelSize][]event
	wheelLen int
	// events is the far-future fallback heap.
	events eventHeap

	procs   []*Proc
	running *Proc // process currently executing, nil inside plain events
	stopped bool
	failure error

	// curIdx is the consumed prefix of the current cycle's wheel bucket.
	curIdx int
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation cycle.
func (k *Kernel) Now() uint64 { return k.now }

// Events returns the total number of events the kernel has executed since
// creation. Dividing by wall-clock time gives the engine's events/sec
// throughput (the denominator of the Mevents/sec benchmark metric).
func (k *Kernel) Events() uint64 { return k.executed }

// Pending returns the number of scheduled events not yet executed.
func (k *Kernel) Pending() int { return k.wheelLen + len(k.events) }

// push enqueues a typed event at now+delay, choosing the wheel bucket for
// near events and the heap otherwise. This is the single scheduling
// chokepoint; it allocates only when a bucket or the heap must grow.
func (k *Kernel) push(delay uint64, kind evKind, p *Proc, fn func()) {
	k.seq++
	e := event{at: k.now + delay, seq: k.seq, p: p, fn: fn, kind: kind}
	if delay < wheelSize {
		slot := e.at & (wheelSize - 1)
		k.wheel[slot] = append(k.wheel[slot], e)
		k.wheelLen++
	} else {
		k.events.push(e)
	}
}

// Schedule registers fn to run at the current cycle plus delay.
// A delay of 0 runs fn later within the current cycle, after all
// previously scheduled work for this cycle.
func (k *Kernel) Schedule(delay uint64, fn func()) {
	k.Sync()
	k.push(delay, evCallback, nil, fn)
}

// Sync plays out the running process's step script (Proc.Advance); inside
// a callback or outside Run it does nothing. Code that reads or books shared
// state without holding the caller's *Proc — a bus port, Fire — calls it.
func (k *Kernel) Sync() {
	if p := k.running; p != nil && p.ns > 0 {
		p.play()
	}
}

// Stop terminates the simulation after the current event completes.
// Pending events are discarded. Stop is typically called by a sink
// process once the application has produced all of its output.
func (k *Kernel) Stop() { k.stopped = true }

// Fail terminates the simulation and makes Run return err.
func (k *Kernel) Fail(err error) {
	k.failure = err
	k.stopped = true
}

// DeadlockError is returned by Run when processes remain blocked but no
// events are pending, i.e. the modeled system has deadlocked (for
// example because a stream buffer is too small for the application's
// communication pattern).
type DeadlockError struct {
	Cycle   uint64
	Blocked []string // names and wait states of the blocked processes
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d, blocked: %v", e.Cycle, e.Blocked)
}

// LimitError is returned by Run when the cycle limit was reached before
// the simulation finished.
type LimitError struct {
	Limit uint64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("sim: cycle limit %d reached", e.Limit)
}

// Run executes events until no work remains, Stop or Fail is called, or
// the next pending event lies beyond limit (limit 0 means no limit). It
// returns nil on a clean finish (all processes terminated or Stop
// called), a *DeadlockError if blocked processes remain with no pending
// events, a *LimitError on limit exhaustion, or the error passed to Fail.
//
// A *LimitError is a pause, not a termination: no pending event is
// consumed or discarded, and process coroutines stay suspended, so calling
// Run again with a higher (or zero) limit resumes exactly where the
// previous call stopped. A caller that abandons a kernel after a
// LimitError should call Shutdown to release its coroutines. Every other
// return value is terminal and shuts the kernel down automatically.
func (k *Kernel) Run(limit uint64) error {
	paused := false
	defer func() {
		// The loop has exited: no process is executing, so the
		// outside-process guards in Delay/Wait must see a nil running.
		k.running = nil
		// Terminal returns (and panics escaping an event callback) unwind
		// the suspended processes; a LimitError pause keeps them.
		if !paused {
			k.Shutdown()
		}
	}()
	for !k.stopped {
		slot := k.now & (wheelSize - 1)
		bucket := k.wheel[slot] // re-read each pass: may have grown or moved
		hasW := k.curIdx < len(bucket)
		hasH := len(k.events) > 0 && k.events[0].at == k.now
		if !hasW && !hasH {
			// Current cycle drained: reset the bucket (keeping its capacity
			// for the steady-state zero-alloc path) and advance the clock.
			if k.curIdx > 0 {
				clearEvents(bucket)
				k.wheel[slot] = bucket[:0]
				k.curIdx = 0
			}
			at, ok := k.nextAt()
			if !ok {
				if blocked := k.blockedProcs(); len(blocked) > 0 {
					return &DeadlockError{Cycle: k.now, Blocked: blocked}
				}
				return nil // all quiet: clean finish
			}
			if limit != 0 && at > limit {
				// Peek-only: the event stays queued so a later Run resumes it.
				paused = true
				return &LimitError{Limit: limit}
			}
			k.now = at
			continue
		}
		// Merge the wheel bucket and same-cycle heap events by seq.
		var e event
		if hasW && (!hasH || bucket[k.curIdx].seq < k.events[0].seq) {
			e = bucket[k.curIdx]
			k.curIdx++
			k.wheelLen--
		} else {
			e = k.events.pop()
		}
		k.executed++
		switch e.kind {
		case evLaunch:
			e.p.start()
			fallthrough
		case evDispatch:
			if p := e.p; p.pc < p.ns {
				// One step of p's script elapsed, more are recorded: queue the
				// next at the instant, and with the seq, p's own Delay would
				// have used, and leave p suspended.
				p.lag -= p.steps[p.pc-1]
				k.push(p.steps[p.pc], evDispatch, p, nil)
				p.pc++
				continue
			}
			// Control comes back when the process parks or its body ends.
			k.running = e.p
			e.p.next()
			k.running = nil
		default:
			e.fn()
		}
	}
	k.dropConsumed()
	return k.failure
}

// dropConsumed discards the consumed prefix of the current cycle's wheel
// bucket after a mid-cycle Stop/Fail, so Pending stays honest.
func (k *Kernel) dropConsumed() {
	if k.curIdx == 0 {
		return
	}
	slot := k.now & (wheelSize - 1)
	bucket := k.wheel[slot]
	n := copy(bucket, bucket[k.curIdx:])
	clearEvents(bucket[n:])
	k.wheel[slot] = bucket[:n]
	k.curIdx = 0
}

// nextAt reports the cycle of the earliest pending event across the wheel
// and the heap. The wheel scan starts at the current cycle and walks at
// most wheelSize buckets; since all wheel events lie in [now,
// now+wheelSize), the first non-empty bucket it meets is the earliest.
func (k *Kernel) nextAt() (uint64, bool) {
	at := uint64(0)
	ok := false
	if k.wheelLen > 0 {
		for d := uint64(0); d < wheelSize; d++ {
			t := k.now + d
			if len(k.wheel[t&(wheelSize-1)]) > 0 {
				at, ok = t, true
				break
			}
		}
	}
	if len(k.events) > 0 {
		if h := k.events[0].at; !ok || h < at {
			at, ok = h, true
		}
	}
	return at, ok
}

// clearEvents zeroes event values so consumed buckets do not pin process
// or closure references until the bucket's capacity is reused.
func clearEvents(s []event) {
	for j := range s {
		s[j] = event{}
	}
}

// blockedProcs reports the names of live processes that are waiting on a
// signal (not terminated, not scheduled).
func (k *Kernel) blockedProcs() []string {
	var out []string
	for _, p := range k.procs {
		if !p.done && p.started {
			out = append(out, p.name+" ["+p.waitDesc()+"]")
		}
	}
	sort.Strings(out)
	return out
}

// Shutdown unwinds every still-suspended process (its pending Delay/Wait
// panics with an internal sentinel, so the body's deferred calls run) and
// releases its coroutine, preventing goroutine leaks across repeated
// simulations in one Go process (e.g. during tests and benchmarks). Run
// calls it on every terminal return; callers only need it when abandoning
// a kernel after a *LimitError pause. Shutdown is idempotent. A process
// that was registered but never launched has no coroutine to release.
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		if p.started && !p.done {
			p.stop()
		}
	}
}
