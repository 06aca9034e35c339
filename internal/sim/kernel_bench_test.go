package sim

import "testing"

// Pure-kernel microbenchmarks exercising the event hot paths in
// isolation: Delay (typed evDispatch via the timing wheel), Advance + Sync
// (the same events played back without resuming the process), Signal.Fire
// (typed wakeups), Schedule (callback events, wheel and heap paths), and
// a mixed workload shaped like the decode pipeline's event profile.
// Regenerate with:
//
//	go test -bench=BenchmarkKernel -benchmem ./internal/sim
//
// Each reports Mevents/s (millions of executed kernel events per
// wall-clock second) alongside the standard allocs/op.

// reportMevents converts an executed-event total into the Mevents/s metric.
func reportMevents(b *testing.B, events uint64) {
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkKernelDelay measures the dominant operation: processes doing
// short Delays through the timing wheel, a next/yield pair each.
func BenchmarkKernelDelay(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for p := 0; p < 4; p++ {
			period := uint64(1 + p)
			k.NewProc("p", 0, func(p *Proc) {
				for j := 0; j < 2000; j++ {
					p.Delay(period)
				}
			})
		}
		if err := k.Run(0); err != nil {
			b.Fatal(err)
		}
		events += k.Events()
	}
	reportMevents(b, events)
}

// BenchmarkKernelAdvance measures the step script: one process recording
// eight short steps and syncing once, so the loop plays eight events per next/yield pair instead
// of one.
func BenchmarkKernelAdvance(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		k.NewProc("p", 0, func(p *Proc) {
			for j := 0; j < 1000; j++ {
				for s := uint64(1); s <= 8; s++ {
					p.Advance(s)
				}
				p.Sync()
			}
		})
		if err := k.Run(0); err != nil {
			b.Fatal(err)
		}
		events += k.Events()
	}
	reportMevents(b, events)
}

// BenchmarkKernelDelayFar measures long delays that take the heap
// fallback path (delay >= wheelSize).
func BenchmarkKernelDelayFar(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for p := 0; p < 4; p++ {
			period := uint64(wheelSize * (2 + p))
			k.NewProc("p", 0, func(p *Proc) {
				for j := 0; j < 2000; j++ {
					p.Delay(period)
				}
			})
		}
		if err := k.Run(0); err != nil {
			b.Fatal(err)
		}
		events += k.Events()
	}
	reportMevents(b, events)
}

// BenchmarkKernelSignal measures producer/consumer style wakeups:
// one firer, several waiters, typed evDispatch per wakeup.
func BenchmarkKernelSignal(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		sig := k.NewSignal("tick")
		const rounds = 2000
		for w := 0; w < 4; w++ {
			k.NewProc("w", 0, func(p *Proc) {
				for j := 0; j < rounds; j++ {
					p.Wait(sig)
				}
			})
		}
		k.NewProc("firer", 0, func(p *Proc) {
			for j := 0; j < rounds; j++ {
				p.Delay(3)
				sig.Fire()
			}
		})
		if err := k.Run(0); err != nil {
			b.Fatal(err)
		}
		events += k.Events()
	}
	reportMevents(b, events)
}

// BenchmarkKernelSchedule measures plain callback events across a mix of
// wheel-path and heap-path delays.
func BenchmarkKernelSchedule(b *testing.B) {
	b.ReportAllocs()
	delays := [8]uint64{0, 1, 3, 17, wheelSize - 1, wheelSize, 300, 1000}
	var events uint64
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		n := 0
		var tick func()
		tick = func() {
			if n >= 10000 {
				return
			}
			n++
			k.Schedule(delays[n&7], tick)
		}
		k.Schedule(0, tick)
		if err := k.Run(0); err != nil {
			b.Fatal(err)
		}
		events += k.Events()
	}
	reportMevents(b, events)
}

// BenchmarkKernelMixed approximates the decode pipeline's event profile:
// mostly short Delays, frequent signal wakeups, occasional far events.
func BenchmarkKernelMixed(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		sig := k.NewSignal("data")
		k.NewProc("producer", 0, func(p *Proc) {
			for j := 0; j < 3000; j++ {
				p.Delay(uint64(1 + j%7))
				sig.Fire()
				if j%64 == 0 {
					p.Delay(200) // refill stall: heap path
				}
			}
		})
		for c := 0; c < 3; c++ {
			k.NewProc("consumer", 0, func(p *Proc) {
				for j := 0; j < 3000; j++ {
					p.Wait(sig)
					p.Delay(uint64(1 + j%5))
				}
			})
		}
		err := k.Run(0)
		if err != nil {
			if _, ok := err.(*DeadlockError); !ok {
				b.Fatal(err)
			}
		}
		events += k.Events()
	}
	reportMevents(b, events)
}
