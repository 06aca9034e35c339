package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(10, func() { got = append(got, 2) })
	k.Schedule(5, func() { got = append(got, 1) })
	k.Schedule(10, func() { got = append(got, 3) }) // same cycle: schedule order
	k.Schedule(20, func() { got = append(got, 4) })
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 20 {
		t.Fatalf("Now = %d, want 20", k.Now())
	}
}

func TestZeroDelayRunsAfterPendingSameCycleWork(t *testing.T) {
	k := NewKernel()
	var got []string
	k.Schedule(3, func() {
		got = append(got, "a")
		k.Schedule(0, func() { got = append(got, "c") })
	})
	k.Schedule(3, func() { got = append(got, "b") })
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s := strings.Join(got, ""); s != "abc" {
		t.Fatalf("order = %q, want abc", s)
	}
}

func TestEventDeterminism(t *testing.T) {
	// The same randomized scheduling program must produce the identical
	// trace on every run.
	run := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var sb strings.Builder
		var spawn func(depth int)
		n := 0
		spawn = func(depth int) {
			if depth > 4 || n > 200 {
				return
			}
			for i := 0; i < rng.Intn(4); i++ {
				id := n
				n++
				k.Schedule(uint64(rng.Intn(10)), func() {
					fmt.Fprintf(&sb, "%d@%d;", id, k.Now())
					spawn(depth + 1)
				})
			}
		}
		spawn(0)
		if err := k.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sb.String()
	}
	for seed := int64(1); seed < 6; seed++ {
		a, b := run(seed), run(seed)
		if a != b {
			t.Fatalf("seed %d: nondeterministic trace:\n%s\n%s", seed, a, b)
		}
	}
}

func TestProcDelayAdvancesTime(t *testing.T) {
	k := NewKernel()
	var at []uint64
	k.NewProc("p", 0, func(p *Proc) {
		at = append(at, p.Now())
		p.Delay(7)
		at = append(at, p.Now())
		p.Delay(3)
		at = append(at, p.Now())
	})
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []uint64{0, 7, 10}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("at = %v, want %v", at, want)
		}
	}
}

func TestProcStartOffset(t *testing.T) {
	k := NewKernel()
	var start uint64
	k.NewProc("late", 42, func(p *Proc) { start = p.Now() })
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if start != 42 {
		t.Fatalf("start = %d, want 42", start)
	}
}

func TestStrictHandoff(t *testing.T) {
	// Two processes interleave deterministically: only one runs at a time,
	// and wakeups at the same cycle run in schedule order.
	k := NewKernel()
	var trace []string
	mk := func(name string, period uint64) {
		k.NewProc(name, 0, func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, fmt.Sprintf("%s%d@%d", name, i, p.Now()))
				p.Delay(period)
			}
		})
	}
	mk("a", 2)
	mk("b", 3)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "a0@0 b0@0 a1@2 b1@3 a2@4 b2@6"
	if got := strings.Join(trace, " "); got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	k := NewKernel()
	sig := k.NewSignal("go")
	var woke []string
	for _, n := range []string{"x", "y"} {
		n := n
		k.NewProc(n, 0, func(p *Proc) {
			p.Wait(sig)
			woke = append(woke, fmt.Sprintf("%s@%d", n, p.Now()))
		})
	}
	k.Schedule(9, func() { sig.Fire() })
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := strings.Join(woke, " "); got != "x@9 y@9" {
		t.Fatalf("woke = %q", got)
	}
}

func TestSignalFireWithNoWaiters(t *testing.T) {
	k := NewKernel()
	sig := k.NewSignal("none")
	k.Schedule(1, func() { sig.Fire() })
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	sig := k.NewSignal("never")
	k.NewProc("stuck", 0, func(p *Proc) { p.Wait(sig) })
	err := k.Run(0)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || !strings.Contains(dl.Blocked[0], "stuck") {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

func TestCycleLimit(t *testing.T) {
	k := NewKernel()
	k.NewProc("spin", 0, func(p *Proc) {
		for {
			p.Delay(100)
		}
	})
	err := k.Run(1000)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want LimitError", err)
	}
}

func TestStopEndsRun(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.NewProc("p", 0, func(p *Proc) {
		for {
			ran++
			if ran == 5 {
				k.Stop()
			}
			p.Delay(1)
		}
	})
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 5 {
		t.Fatalf("ran = %d, want 5", ran)
	}
}

func TestFailPropagatesError(t *testing.T) {
	k := NewKernel()
	boom := errors.New("boom")
	k.Schedule(4, func() { k.Fail(boom) })
	k.Schedule(9, func() { t.Fatal("event after Fail must not run") })
	if err := k.Run(0); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestProcPanicBecomesError(t *testing.T) {
	k := NewKernel()
	k.NewProc("bad", 0, func(p *Proc) {
		p.Delay(2)
		panic("oops")
	})
	err := k.Run(0)
	if err == nil || !strings.Contains(err.Error(), "oops") {
		t.Fatalf("err = %v, want panic error", err)
	}
}

func TestShutdownReleasesBlockedProcs(t *testing.T) {
	// After Run returns with a deadlock, the blocked goroutines must have
	// been unwound; a subsequent kernel must work normally.
	for i := 0; i < 3; i++ {
		k := NewKernel()
		sig := k.NewSignal("never")
		for j := 0; j < 4; j++ {
			k.NewProc(fmt.Sprintf("w%d", j), 0, func(p *Proc) {
				p.Wait(sig)
				t.Error("waiter must not resume normally")
			})
		}
		var dl *DeadlockError
		if err := k.Run(0); !errors.As(err, &dl) {
			t.Fatalf("err = %v", err)
		}
	}
}

func TestManyProcsInterleaveDeterministically(t *testing.T) {
	run := func() string {
		k := NewKernel()
		var sb strings.Builder
		for i := 0; i < 16; i++ {
			i := i
			k.NewProc(fmt.Sprintf("p%d", i), uint64(i%4), func(p *Proc) {
				for j := 0; j < 8; j++ {
					p.Delay(uint64(1 + (i+j)%5))
				}
				fmt.Fprintf(&sb, "%d@%d;", i, p.Now())
			})
		}
		if err := k.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sb.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}

func TestQuickDelaySumsToNow(t *testing.T) {
	// Property: a process performing arbitrary delays finishes at exactly
	// the sum of its delays (when started at 0 and alone in the kernel).
	f := func(delays []uint16) bool {
		k := NewKernel()
		var sum, end uint64
		k.NewProc("p", 0, func(p *Proc) {
			for _, d := range delays {
				sum += uint64(d)
				p.Delay(uint64(d))
			}
			end = p.Now()
		})
		if err := k.Run(0); err != nil {
			return false
		}
		return end == sum && k.Now() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitOutsideProcPanics(t *testing.T) {
	k := NewKernel()
	sig := k.NewSignal("s")
	var p *Proc
	p = k.NewProc("p", 0, func(pp *Proc) { pp.Delay(1) })
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Wait(sig)
}

func TestRunResumesAfterLimit(t *testing.T) {
	// A LimitError is a pause: no event may be lost, and a later Run call
	// must continue exactly where the previous one stopped. (Regression:
	// the kernel used to pop-and-discard the first over-limit event.)
	k := NewKernel()
	var at []uint64
	k.NewProc("p", 0, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Delay(100)
			at = append(at, p.Now())
		}
	})
	err := k.Run(250)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("first Run: err = %v, want LimitError", err)
	}
	if want := []uint64{100, 200}; len(at) != len(want) {
		t.Fatalf("progress before limit = %v, want %v", at, want)
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	want := []uint64{100, 200, 300, 400, 500}
	if len(at) != len(want) {
		t.Fatalf("at = %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("at = %v, want %v", at, want)
		}
	}
	if k.Now() != 500 {
		t.Fatalf("Now = %d, want 500", k.Now())
	}
}

func TestRunLimitDoesNotDiscardPlainEvents(t *testing.T) {
	// Same regression for plain callbacks, including a far-future (heap
	// path) event that straddles the limit.
	k := NewKernel()
	var got []int
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(300, func() { got = append(got, 2) }) // beyond wheel span and limit
	err := k.Run(100)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want LimitError", err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got = %v, want [1]", got)
	}
	if n := k.Pending(); n != 1 {
		t.Fatalf("Pending = %d, want 1", n)
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("got = %v, want [1 2]", got)
	}
	if k.Now() != 300 {
		t.Fatalf("Now = %d, want 300", k.Now())
	}
}

func TestRunLimitRepeatedResume(t *testing.T) {
	// Stepping a simulation through many small limit windows must visit
	// exactly the same states as one unbounded run.
	run := func(step uint64) string {
		k := NewKernel()
		var sb strings.Builder
		for i := 0; i < 10; i++ {
			i := i
			k.Schedule(uint64(i)*37, func() { fmt.Fprintf(&sb, "%d@%d;", i, k.Now()) })
		}
		var err error
		if step == 0 {
			err = k.Run(0)
		} else {
			for limit := step; ; limit += step {
				err = k.Run(limit)
				var le *LimitError
				if !errors.As(err, &le) {
					break
				}
			}
		}
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sb.String()
	}
	want := run(0)
	for _, step := range []uint64{1, 7, 50, 1000} {
		if got := run(step); got != want {
			t.Fatalf("step %d: trace %q, want %q", step, got, want)
		}
	}
}

func TestShutdownAfterAbandonedLimit(t *testing.T) {
	// A caller that gives up on a paused kernel releases its goroutines
	// with Shutdown; Shutdown must be idempotent.
	k := NewKernel()
	k.NewProc("spin", 0, func(p *Proc) {
		for {
			p.Delay(10)
		}
	})
	var le *LimitError
	if err := k.Run(100); !errors.As(err, &le) {
		t.Fatalf("err = %v, want LimitError", err)
	}
	k.Shutdown()
	k.Shutdown()
}

func TestSignalWakeupOrderIsRegistrationOrder(t *testing.T) {
	// Multiple waiters on one signal must resume in the order they called
	// Wait, identically on every run.
	run := func() string {
		k := NewKernel()
		sig := k.NewSignal("go")
		var order []string
		// Stagger registration: procs register in a deterministic order
		// fixed by their start cycles and creation order.
		names := []string{"a", "b", "c", "d", "e"}
		for i, n := range names {
			n := n
			k.NewProc(n, uint64(i%2), func(p *Proc) {
				p.Wait(sig)
				order = append(order, fmt.Sprintf("%s@%d", n, p.Now()))
			})
		}
		k.Schedule(5, func() { sig.Fire() })
		if err := k.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return strings.Join(order, " ")
	}
	// Registration order: start-cycle 0 procs (a, c, e) register at cycle
	// 0 in creation order, then start-cycle 1 procs (b, d) at cycle 1.
	want := "a@5 c@5 e@5 b@5 d@5"
	for i := 0; i < 5; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: wakeup order %q, want %q", i, got, want)
		}
	}
}

func TestSignalReuseAfterFire(t *testing.T) {
	// The waiter slice is reused across fires; re-waiting after a wakeup
	// must work and preserve order.
	k := NewKernel()
	sig := k.NewSignal("tick")
	var got []string
	for _, n := range []string{"x", "y"} {
		n := n
		k.NewProc(n, 0, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Wait(sig)
				got = append(got, fmt.Sprintf("%s%d@%d", n, i, p.Now()))
			}
		})
	}
	k.NewProc("firer", 0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Delay(10)
			sig.Fire()
		}
	})
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "x0@10 y0@10 x1@20 y1@20 x2@30 y2@30"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("got %q, want %q", s, want)
	}
}

func TestWheelHeapMergeOrdering(t *testing.T) {
	// A far-future event (heap path) and a later-scheduled near event
	// (wheel path) landing on the same cycle must run in schedule order:
	// the heap event was scheduled first, so it runs first.
	k := NewKernel()
	var got []string
	k.Schedule(100, func() { got = append(got, "heap-first") }) // seq 1, heap
	k.Schedule(99, func() {                                     // seq 2
		k.Schedule(1, func() { got = append(got, "wheel-second") }) // seq 3, wheel, same cycle 100
	})
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s := strings.Join(got, ","); s != "heap-first,wheel-second" {
		t.Fatalf("order = %q, want heap-first,wheel-second", s)
	}
}

func TestWheelBoundaryDelays(t *testing.T) {
	// Delays straddling the wheel span (wheelSize-1, wheelSize,
	// wheelSize+1, and multiples) must all execute in global time order.
	k := NewKernel()
	var got []uint64
	delays := []uint64{wheelSize - 1, wheelSize, wheelSize + 1, 0, 1,
		2 * wheelSize, 2*wheelSize - 1, 3 * wheelSize, 7, 63, 64, 65, 127, 128, 129}
	for _, d := range delays {
		d := d
		k.Schedule(d, func() { got = append(got, k.Now()) })
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != len(delays) {
		t.Fatalf("executed %d of %d events", len(got), len(delays))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("time went backwards: %v", got)
		}
	}
	if k.Now() != 3*wheelSize {
		t.Fatalf("Now = %d, want %d", k.Now(), 3*wheelSize)
	}
}

// orderRec is one event of orderProgram: its cycle and scheduling index.
type orderRec struct{ at, idx uint64 }

// orderProgram runs an arbitrary nested scheduling program that mixes near
// (wheel) and far (heap) delays, and returns every event as scheduled and
// as executed.
func orderProgram(t *testing.T, seed int64) (sched, exec []orderRec) {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	var idx uint64
	var spawn func(depth int)
	spawn = func(depth int) {
		if depth > 5 || idx > 500 {
			return
		}
		for i := 0; i < rng.Intn(5); i++ {
			// Mix near (wheel) and far (heap) delays.
			var d uint64
			if rng.Intn(2) == 0 {
				d = uint64(rng.Intn(wheelSize))
			} else {
				d = uint64(rng.Intn(1000))
			}
			id := idx
			idx++
			at := k.Now() + d
			sched = append(sched, orderRec{at, id})
			k.Schedule(d, func() {
				exec = append(exec, orderRec{k.Now(), id})
				spawn(depth + 1)
			})
		}
	}
	spawn(0)
	if err := k.Run(0); err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}
	return sched, exec
}

func TestGlobalEventOrderProperty(t *testing.T) {
	// Property: for an arbitrary nested scheduling program, events execute
	// in (cycle, scheduling-sequence) order — the exact contract a single
	// global priority queue would give, regardless of how events are split
	// between the timing wheel and the fallback heap.
	for seed := int64(1); seed <= 8; seed++ {
		sched, exec := orderProgram(t, seed)
		if len(exec) != len(sched) {
			t.Fatalf("seed %d: executed %d of %d", seed, len(exec), len(sched))
		}
		for i := 1; i < len(exec); i++ {
			a, b := exec[i-1], exec[i]
			if a.at > b.at || (a.at == b.at && a.idx > b.idx) {
				t.Fatalf("seed %d: out of order at %d: %v then %v", seed, i, a, b)
			}
		}
	}
}

func TestTraceIndependentOfGOMAXPROCS(t *testing.T) {
	// The event loop and its coroutines are one logical thread, so the
	// number of Ps must not be observable: the property program's execution
	// trace and a signal-coupled process interleaving are identical at
	// GOMAXPROCS 1 and 4.
	trace := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var sb strings.Builder
		for seed := int64(1); seed <= 4; seed++ {
			_, exec := orderProgram(t, seed)
			fmt.Fprintf(&sb, "%v\n", exec)
		}
		k := NewKernel()
		sig := k.NewSignal("tick")
		k.NewProc("ticker", 0, func(p *Proc) {
			for j := 0; j < 40; j++ {
				p.Delay(uint64(1 + j%7))
				sig.Fire()
			}
		})
		for i := 0; i < 6; i++ {
			i := i
			k.NewProc(fmt.Sprintf("w%d", i), uint64(i%3), func(p *Proc) {
				for j := 0; j < 8; j++ {
					p.Wait(sig)
					p.Delay(uint64((i + j) % 4))
					fmt.Fprintf(&sb, "%d.%d@%d;", i, j, p.Now())
				}
			})
		}
		if err := k.Run(0); err != nil {
			t.Fatalf("GOMAXPROCS %d: Run: %v", procs, err)
		}
		return sb.String()
	}
	if one, four := trace(1), trace(4); one != four {
		t.Fatalf("trace differs between GOMAXPROCS 1 and 4:\n%s\n%s", one, four)
	}
}

func TestNoGoroutineLeftBehind(t *testing.T) {
	// Every way a kernel can end must release every process coroutine: the
	// goroutine count is back at its baseline the moment Run (or Shutdown,
	// for a kernel abandoned at a LimitError) returns.
	spin := func(p *Proc) {
		for {
			p.Delay(10)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, k *Kernel)
	}{
		{"clean finish", func(t *testing.T, k *Kernel) {
			for i := 0; i < 4; i++ {
				k.NewProc("p", uint64(i), func(p *Proc) { p.Delay(5) })
			}
			if err := k.Run(0); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}},
		{"stop", func(t *testing.T, k *Kernel) {
			k.NewProc("spin", 0, spin)
			k.NewProc("sink", 0, func(p *Proc) { p.Delay(25); k.Stop() })
			if err := k.Run(0); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}},
		{"deadlock", func(t *testing.T, k *Kernel) {
			sig := k.NewSignal("never")
			for i := 0; i < 4; i++ {
				k.NewProc("w", 0, func(p *Proc) { p.Wait(sig) })
			}
			var dl *DeadlockError
			if err := k.Run(0); !errors.As(err, &dl) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
		}},
		{"process panic", func(t *testing.T, k *Kernel) {
			k.NewProc("spin", 0, spin)
			k.NewProc("bad", 0, func(p *Proc) { p.Delay(3); panic("oops") })
			if err := k.Run(0); err == nil || !strings.Contains(err.Error(), "oops") {
				t.Fatalf("err = %v, want panic error", err)
			}
		}},
		{"abandoned at limit", func(t *testing.T, k *Kernel) {
			k.NewProc("spin", 0, spin)
			k.NewProc("late", 500, spin) // registered, never launched
			var le *LimitError
			if err := k.Run(100); !errors.As(err, &le) {
				t.Fatalf("err = %v, want LimitError", err)
			}
			k.Shutdown()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			tc.run(t, NewKernel())
			if got := runtime.NumGoroutine(); got != base {
				t.Fatalf("%d goroutines after the kernel ended, %d before it started", got, base)
			}
		})
	}
}

func TestShutdownRunsProcessDefers(t *testing.T) {
	// Shutdown unwinds a suspended body rather than dropping it, so the
	// body's deferred calls run — after a deadlock and after an abandoned
	// LimitError pause alike.
	var deferred []string
	k := NewKernel()
	sig := k.NewSignal("never")
	k.NewProc("waiter", 0, func(p *Proc) {
		defer func() { deferred = append(deferred, "waiter") }()
		p.Wait(sig)
		t.Error("waiter must not resume normally")
	})
	var dl *DeadlockError
	if err := k.Run(0); !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	k = NewKernel()
	k.NewProc("spin", 0, func(p *Proc) {
		defer func() { deferred = append(deferred, "spin") }()
		for {
			p.Delay(10)
		}
	})
	var le *LimitError
	if err := k.Run(100); !errors.As(err, &le) {
		t.Fatalf("err = %v, want LimitError", err)
	}
	if len(deferred) != 1 {
		t.Fatalf("deferred = %v before Shutdown, want [waiter]", deferred)
	}
	k.Shutdown()
	if got := strings.Join(deferred, ","); got != "waiter,spin" {
		t.Fatalf("deferred = %q, want \"waiter,spin\"", got)
	}
}

func TestNestedRunInsideProcess(t *testing.T) {
	// A process body may build and run a kernel of its own (sweeps and
	// examples do): the inner loop resumes inner coroutines from the outer
	// coroutine's goroutine, and the outer simulation is undisturbed.
	outer := NewKernel()
	var innerEnd, outerEnd uint64
	outer.NewProc("host", 0, func(p *Proc) {
		p.Delay(7)
		inner := NewKernel()
		sig := inner.NewSignal("go")
		inner.NewProc("a", 0, func(q *Proc) { q.Delay(30); sig.Fire() })
		inner.NewProc("b", 0, func(q *Proc) { q.Wait(sig); q.Delay(12); innerEnd = q.Now() })
		if err := inner.Run(0); err != nil {
			t.Errorf("inner Run: %v", err)
		}
		p.Delay(5)
		outerEnd = p.Now()
	})
	outer.NewProc("other", 0, func(p *Proc) { p.Delay(9) })
	if err := outer.Run(0); err != nil {
		t.Fatalf("outer Run: %v", err)
	}
	if innerEnd != 42 || outerEnd != 12 {
		t.Fatalf("inner ended at %d, outer at %d; want 42 and 12", innerEnd, outerEnd)
	}
}

func TestEventsCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 10; i++ {
		k.Schedule(uint64(i), func() {})
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k.Events() != 10 {
		t.Fatalf("Events = %d, want 10", k.Events())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", k.Pending())
	}
}
