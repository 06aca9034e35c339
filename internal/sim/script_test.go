package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// A scripted program is what the equivalence property runs: a few
// processes, each a straight line of operations, plus a ticker callback
// chain that fires every signal now and then so that most waits wake up.
// (A wait that never wakes ends the run in a DeadlockError, which is part
// of the outcome being compared.)

type opKind uint8

const (
	opAdvance opKind = iota
	opDelay
	opWait
	opFire
	opSchedule // schedule a callback d cycles ahead that logs and fires sig
)

type scriptOp struct {
	kind opKind
	d    uint64
	sig  int
}

type scriptProgram struct {
	starts []uint64
	procs  [][]scriptOp
	nsig   int
}

// runMode says how a program's Advance operations are executed.
type runMode uint8

const (
	asWritten      runMode = iota // Advance records a step
	advanceIsDelay                // reference: every Advance is a Delay
	advanceSummed                 // negative control: consecutive Advances merge into one Delay
)

// scriptDelay draws one of the interesting step lengths: re-queue, the
// shortest real delay, both sides of the timing-wheel boundary, heap delays.
func scriptDelay(rng *rand.Rand) uint64 {
	switch rng.Intn(7) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return wheelSize - 1
	case 3:
		return wheelSize
	case 4:
		return wheelSize + 1
	case 5:
		return uint64(100 + rng.Intn(900))
	default:
		return uint64(2 + rng.Intn(12))
	}
}

func genScriptProgram(seed int64) scriptProgram {
	rng := rand.New(rand.NewSource(seed))
	pr := scriptProgram{nsig: 1 + rng.Intn(3)}
	for p, np := 0, 1+rng.Intn(6); p < np; p++ {
		pr.starts = append(pr.starts, uint64(rng.Intn(4)))
		var ops []scriptOp
		for want := 20 + rng.Intn(60); len(ops) < want; {
			switch r := rng.Intn(10); {
			case r < 4:
				// A run of Advances; one run in eight overflows the script.
				n := 1 + rng.Intn(5)
				if rng.Intn(8) == 0 {
					n = scriptCap + 1 + rng.Intn(2*scriptCap)
				}
				for i := 0; i < n; i++ {
					ops = append(ops, scriptOp{kind: opAdvance, d: scriptDelay(rng)})
				}
			case r < 6:
				ops = append(ops, scriptOp{kind: opDelay, d: scriptDelay(rng)})
			case r < 7:
				ops = append(ops, scriptOp{kind: opWait, sig: rng.Intn(pr.nsig)})
			case r < 8:
				ops = append(ops, scriptOp{kind: opFire, sig: rng.Intn(pr.nsig)})
			default:
				ops = append(ops, scriptOp{kind: opSchedule, d: scriptDelay(rng), sig: rng.Intn(pr.nsig)})
			}
		}
		pr.procs = append(pr.procs, ops)
	}
	return pr
}

// scriptLogRec is one globally visible action: who did what at which cycle.
// Actors are process indices; callbacks log as actor -1-proc.
type scriptLogRec struct {
	at    uint64
	actor int
	op    int
}

type scriptOutcome struct {
	log    []scriptLogRec
	events uint64
	now    uint64
	err    string
}

// runScript executes the program. With pauseAt > 0 the run is first limited
// to that cycle and, if that pauses it, resumed without a limit.
func runScript(pr scriptProgram, mode runMode, pauseAt uint64) scriptOutcome {
	k := NewKernel()
	var out scriptOutcome
	sigs := make([]*Signal, pr.nsig)
	for i := range sigs {
		sigs[i] = k.NewSignal(fmt.Sprintf("s%d", i))
	}
	ticks := 0
	var tick func()
	tick = func() {
		for _, s := range sigs {
			s.Fire()
		}
		if ticks++; ticks < 40 {
			k.Schedule(97, tick)
		}
	}
	k.Schedule(97, tick)
	for pi, ops := range pr.procs {
		pi, ops := pi, ops
		k.NewProc(fmt.Sprintf("p%d", pi), pr.starts[pi], func(p *Proc) {
			var sum uint64 // advanceSummed: steps merged so far
			pending := false
			flush := func() {
				if pending {
					p.Delay(sum)
					sum, pending = 0, false
				}
			}
			for oi, op := range ops {
				oi := oi
				if op.kind == opAdvance {
					switch mode {
					case asWritten:
						p.Advance(op.d)
					case advanceIsDelay:
						p.Delay(op.d)
					case advanceSummed:
						sum += op.d
						pending = true
					}
					continue
				}
				flush()
				switch op.kind {
				case opDelay:
					p.Delay(op.d)
				case opWait:
					p.Wait(sigs[op.sig])
				case opFire:
					sigs[op.sig].Fire()
				case opSchedule:
					sig := sigs[op.sig]
					k.Schedule(op.d, func() {
						out.log = append(out.log, scriptLogRec{k.Now(), -1 - pi, oi})
						sig.Fire()
					})
				}
				// Every non-Advance operation has synced, so logical and
				// kernel time agree and the record's place in the global log
				// is the place the action took in the event order.
				if p.Now() != k.Now() {
					panic("logical time differs from kernel time after a sync")
				}
				out.log = append(out.log, scriptLogRec{p.Now(), pi, oi})
			}
			flush()
		})
	}
	err := k.Run(pauseAt)
	var le *LimitError
	if pauseAt > 0 && errors.As(err, &le) {
		err = k.Run(0)
	}
	out.events, out.now = k.Events(), k.Now()
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// diffOutcome is the equivalence checker: it reports the first difference
// between two runs of one program, or "" when an observer could not tell
// them apart.
func diffOutcome(want, got scriptOutcome) string {
	if want.err != got.err {
		return fmt.Sprintf("error %q vs %q", want.err, got.err)
	}
	if want.events != got.events || want.now != got.now {
		return fmt.Sprintf("events/now %d/%d vs %d/%d", want.events, want.now, got.events, got.now)
	}
	if !reflect.DeepEqual(want.log, got.log) {
		for i := range want.log {
			if i >= len(got.log) || want.log[i] != got.log[i] {
				return fmt.Sprintf("log differs at %d of %d/%d: %v", i, len(want.log), len(got.log), want.log[i])
			}
		}
		return "log lengths differ"
	}
	return ""
}

func TestAdvanceEquivalenceProperty(t *testing.T) {
	// Property: replacing any subset of a program's Delays by Advance —
	// here, all the ones the generator marked — changes nothing an observer
	// can see: the same actions at the same cycles in the same global order,
	// the same number of kernel events, the same final cycle and the same
	// error. It also holds when the run is paused by a cycle limit at an
	// arbitrary point (often mid-script) and resumed.
	overflowed, clean := false, 0
	for seed := int64(1); seed <= 60; seed++ {
		pr := genScriptProgram(seed)
		for _, ops := range pr.procs {
			run := 0
			for _, op := range ops {
				if op.kind != opAdvance {
					run = 0
				} else if run++; run > scriptCap {
					overflowed = true
				}
			}
		}
		want := runScript(pr, advanceIsDelay, 0)
		if want.err == "" {
			clean++
		}
		if d := diffOutcome(want, runScript(pr, asWritten, 0)); d != "" {
			t.Fatalf("seed %d: Advance run differs from Delay run: %s", seed, d)
		}
		if want.now > 1 {
			pause := 1 + uint64(rand.New(rand.NewSource(seed)).Int63n(int64(want.now)))
			if d := diffOutcome(want, runScript(pr, asWritten, pause)); d != "" {
				t.Fatalf("seed %d: run paused at %d and resumed differs: %s", seed, pause, d)
			}
		}
	}
	if !overflowed || clean < 20 || clean == 60 {
		t.Fatalf("generator lost its coverage: script overflow seen %v, %d of 60 programs ended cleanly "+
			"(want some of each: clean finishes and deadlock reports)", overflowed, clean)
	}
}

func TestAdvanceCheckerCatchesSummedDelays(t *testing.T) {
	// Negative control: merging a script into one Delay of the sum is not
	// equivalent, and the checker above must say so. The merged wake-up
	// takes its (cycle, seq) place in line when the first step is issued
	// instead of the last, so a neighbour that was ahead falls behind.
	two := scriptProgram{
		nsig:   1,
		starts: []uint64{0, 0},
		procs: [][]scriptOp{
			{{kind: opDelay, d: 1}, {kind: opDelay, d: 1}},
			{{kind: opAdvance, d: 1}, {kind: opAdvance, d: 1}, {kind: opFire}},
		},
	}
	want := runScript(two, advanceIsDelay, 0)
	if d := diffOutcome(want, runScript(two, asWritten, 0)); d != "" {
		t.Fatalf("two-process program: Advance run differs: %s", d)
	}
	summed := runScript(two, advanceSummed, 0)
	if d := diffOutcome(want, summed); d == "" {
		t.Fatal("checker accepted the summed-delay variant of the two-process program")
	}
	// The damage is to the order, not only to the event count: at cycle 2
	// process 0 ran first in the reference and second in the summed run.
	at2 := func(o scriptOutcome) []int {
		var actors []int
		for _, r := range o.log {
			if r.at == 2 {
				actors = append(actors, r.actor)
			}
		}
		return actors
	}
	if w, s := at2(want), at2(summed); !reflect.DeepEqual(w, []int{0, 1}) || !reflect.DeepEqual(s, []int{1, 0}) {
		t.Fatalf("cycle-2 order: reference %v, summed %v; want [0 1] and [1 0]", w, s)
	}
	caught := 0
	for seed := int64(1); seed <= 20; seed++ {
		pr := genScriptProgram(seed)
		if diffOutcome(runScript(pr, advanceIsDelay, 0), runScript(pr, advanceSummed, 0)) != "" {
			caught++
		}
	}
	if caught < 15 {
		t.Fatalf("checker caught the summed-delay variant on %d of 20 random programs", caught)
	}
}

func TestLimitPauseMidScript(t *testing.T) {
	// A cycle limit that falls between two steps of a script pauses the
	// run with the process still suspended and the rest of its script
	// intact; the next Run plays it out.
	k := NewKernel()
	var resumedAt uint64
	var p *Proc
	p = k.NewProc("p", 0, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Advance(10)
		}
		if p.Now() != 50 {
			t.Errorf("logical time %d after five Advance(10), want 50", p.Now())
		}
		p.Sync()
		resumedAt = p.Now()
	})
	var desc string
	k.Schedule(25, func() { desc = p.waitDesc() })
	var le *LimitError
	if err := k.Run(35); !errors.As(err, &le) {
		t.Fatalf("first Run: err = %v, want LimitError", err)
	}
	if k.Now() != 30 || resumedAt != 0 {
		t.Fatalf("paused at cycle %d with the process resumed at %d, want 30 and not resumed", k.Now(), resumedAt)
	}
	// At cycle 25 two steps had elapsed: three steps of 10 were still to go.
	if desc != "delay 30" {
		t.Fatalf("wait state mid-script = %q, want \"delay 30\"", desc)
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	// launch + 5 steps + the probe callback
	if resumedAt != 50 || k.Now() != 50 || k.Events() != 7 {
		t.Fatalf("resumed at %d, finished at %d after %d events, want 50, 50, 7", resumedAt, k.Now(), k.Events())
	}
}

func TestShutdownMidScript(t *testing.T) {
	// Abandoning a kernel whose process is parked half-way through its
	// script unwinds the body (deferred calls run) and frees the coroutine.
	base := runtime.NumGoroutine()
	k := NewKernel()
	deferred := false
	k.NewProc("p", 0, func(p *Proc) {
		defer func() { deferred = true }()
		p.Advance(10)
		p.Advance(10)
		p.Advance(10)
		p.Sync()
		t.Error("process resumed after Shutdown")
	})
	var le *LimitError
	if err := k.Run(15); !errors.As(err, &le) {
		t.Fatalf("Run: err = %v, want LimitError", err)
	}
	k.Shutdown()
	if !deferred {
		t.Fatal("deferred call did not run")
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("%d goroutines after Shutdown, %d before the kernel started", got, base)
	}
}

func TestAdvanceSemantics(t *testing.T) {
	t.Run("steps recorded before return still elapse", func(t *testing.T) {
		k := NewKernel()
		k.NewProc("p", 0, func(p *Proc) { p.Advance(7); p.Advance(5) })
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if k.Now() != 12 || k.Events() != 3 {
			t.Fatalf("finished at %d after %d events, want 12 and 3", k.Now(), k.Events())
		}
	})
	t.Run("zero step re-queues behind same-cycle work", func(t *testing.T) {
		k := NewKernel()
		var got []string
		k.NewProc("p", 0, func(p *Proc) {
			k.Schedule(0, func() { got = append(got, "callback") })
			p.Advance(0)
			p.Sync()
			got = append(got, "proc")
		})
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, ",") != "callback,proc" {
			t.Fatalf("order %v, want callback before proc", got)
		}
	})
	t.Run("outside the process", func(t *testing.T) {
		k := NewKernel()
		p := k.NewProc("p", 0, func(p *Proc) { p.Delay(1) })
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		for name, call := range map[string]func(){"Advance": func() { p.Advance(1) }, "Sync": p.Sync} {
			func() {
				defer func() {
					want := "sim: " + name + " called from outside the process"
					if r := recover(); r != want {
						t.Errorf("%s outside the process: recovered %v, want %q", name, r, want)
					}
				}()
				call()
			}()
		}
	})
}
