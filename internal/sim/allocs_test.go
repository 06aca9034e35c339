package sim

// Allocation guard for the simulation kernel's construction and
// steady-state paths.
//
// This test pins the per-run allocation count of a miniature kernel
// stress mix so that a creep fails a test instead of surfacing two PRs
// later in a benchmark diff. The budget is deliberately exact: if you add
// an allocation to NewKernel / NewProc / the run loop on purpose, re-count
// and update the constant alongside the justification.

import (
	"testing"
)

// stressRun is a scaled-down replica of that kernel-stress
// workload: one producer firing a signal with mixed short/far delays
// (wheel and heap paths both exercised), three consumers on the signal.
func stressRun(rounds int) {
	k := NewKernel()
	sig := k.NewSignal("data")
	k.NewProc("producer", 0, func(p *Proc) {
		for j := 0; j < rounds; j++ {
			p.Delay(uint64(1 + j%7))
			sig.Fire()
			if j%64 == 0 {
				p.Delay(200)
			}
		}
	})
	for c := 0; c < 3; c++ {
		k.NewProc("consumer", 0, func(p *Proc) {
			for j := 0; j < rounds; j++ {
				p.Wait(sig)
				p.Delay(uint64(1 + j%5))
			}
		})
	}
	if err := k.Run(0); err != nil {
		if _, ok := err.(*DeadlockError); !ok {
			panic(err)
		}
	}
}

// kernelStressAllocBudget is the full allocation budget of one stress
// run: the Kernel, one signal, four processes, the producer/consumer body
// closures, warm-up growth of the wheel buckets and far-event heap, and
// the terminal DeadlockError report (name and wait-state strings for the
// three blocked consumers). A process costs 13 objects at launch: the
// Proc, the closure wrapping its body, and what iter.Pull builds around
// it (the coroutine, its next/stop/yield closures and their escaped
// control variables). The run loop itself (Delay, Wait, Fire, park,
// next/yield) must contribute nothing once warm — that is what keeps this
// number independent of `rounds`, which TestKernelStressAllocsScaleFree
// checks explicitly.
//
// 267 = the 228 of the channel-handoff kernel (3 objects per process:
// Proc, channel, goroutine closure) plus 10 per process for iter.Pull,
// minus the Run caller's wake-up channel that NewKernel no longer makes.
const kernelStressAllocBudget = 267

// TestKernelStressAllocs pins the allocation count of the stress mix.
// A failure here means a construction- or hot-path allocation was added
// (or removed — tighten the budget if so).
func TestKernelStressAllocs(t *testing.T) {
	got := testing.AllocsPerRun(10, func() { stressRun(512) })
	if got > kernelStressAllocBudget {
		t.Errorf("kernel stress run allocates %.0f times, budget %d — a construction or hot-path allocation crept in", got, kernelStressAllocBudget)
	}
	if got < kernelStressAllocBudget-20 {
		t.Logf("kernel stress run allocates only %.0f times (budget %d); consider tightening the budget", got, kernelStressAllocBudget)
	}
}

// TestKernelStressAllocsScaleFree verifies the budget is round-count
// independent: quadrupling the rounds must not add allocations, proving
// Delay/Wait/Fire and the coroutine switch are allocation-free in
// steady state.
func TestKernelStressAllocsScaleFree(t *testing.T) {
	small := testing.AllocsPerRun(5, func() { stressRun(512) })
	large := testing.AllocsPerRun(5, func() { stressRun(2048) })
	if large > small+2 { // tiny slack for map/GC noise
		t.Errorf("allocations scale with rounds: %.0f at 512 rounds vs %.0f at 2048 — the hot path allocates", small, large)
	}
}
