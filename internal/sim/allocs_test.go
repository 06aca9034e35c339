package sim

// Allocation guard for the simulation kernel's construction and
// steady-state paths.
//
// History: the allocs/run figure of a 200 000-round kernel stress crept from
// 231 to 232 when the direct-handoff rewrite added a driver channel to
// NewKernel without reclaiming an allocation elsewhere. This test pins
// the per-run allocation count of a miniature version of that stress
// mix so the next creep fails a test instead of surfacing two PRs later
// in a benchmark diff. The budget is deliberately exact: if you add an
// allocation to NewKernel / NewProc / the run loop on purpose, re-count
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
// run: kernel construction (Kernel, driver channel), one signal, four
// processes (Proc + rendezvous channel + goroutine closure each), the
// producer/consumer body closures, warm-up growth of the wheel buckets
// and far-event heap, and the terminal DeadlockError report (name and
// wait-state strings for the three blocked consumers). The run loop
// itself (Delay, Wait, Fire, park, direct handoff) must contribute
// nothing once warm — that is what keeps this number independent of
// `rounds`, which TestKernelStressAllocsScaleFree checks explicitly.
//
// 228 = the 232 measured on the full-size stress at pr4 minus the four
// yield channels reclaimed by merging each Proc's resume/yield pair into
// one rendezvous channel.
const kernelStressAllocBudget = 228

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
// Delay/Wait/Fire and the handoff machinery are allocation-free in
// steady state.
func TestKernelStressAllocsScaleFree(t *testing.T) {
	small := testing.AllocsPerRun(5, func() { stressRun(512) })
	large := testing.AllocsPerRun(5, func() { stressRun(2048) })
	if large > small+2 { // tiny slack for map/GC noise
		t.Errorf("allocations scale with rounds: %.0f at 512 rounds vs %.0f at 2048 — the hot path allocates", small, large)
	}
}
