package shell

// Microbenchmarks for the shell's data-transport hot paths: cache-hit
// reads and writes, demand-miss reads, and reads spanning the circular-
// buffer seam (two window segments per access). All report allocations —
// the steady-state transport is expected to allocate nothing per
// operation.

import (
	"testing"

	"eclipse/internal/mem"
	"eclipse/internal/sim"
)

// benchSelfLoop runs body on a single-shell self-loop stream (task port 0
// produces into the buffer its own port 1 consumes), the minimal fixture
// that exercises the full write-cache/flush/putspace/read-cache path.
func benchSelfLoop(b *testing.B, cfg Config, bufSize uint32, body func(sh *Shell, task int)) {
	b.Helper()
	k := sim.NewKernel()
	f := NewFabric(k, mem.New(k, mem.Fig8SRAM()))
	sh := f.NewShell(cfg)
	task := sh.AddTask("bench", 0, 0)
	if err := f.Connect(
		Endpoint{Shell: sh, Task: task, Port: 0},
		[]Endpoint{{Shell: sh, Task: task, Port: 1}},
		bufSize,
	); err != nil {
		b.Fatal(err)
	}
	k.NewProc("bench", 0, func(p *sim.Proc) {
		sh.Bind(p)
		tk, _, _ := sh.GetTask()
		body(sh, tk)
		sh.TaskDone(task)
		sh.GetTask()
	})
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// fillWindow produces n bytes on port 0 and blocks until port 1 has them
// granted, leaving a granted read window of n bytes.
func fillWindow(b *testing.B, sh *Shell, tk int, n uint32) {
	b.Helper()
	for !sh.GetSpace(tk, 0, n) {
		tk, _, _ = sh.GetTask()
	}
	sh.Write(tk, 0, 0, make([]byte, n))
	sh.PutSpace(tk, 0, n)
	for !sh.GetSpace(tk, 1, n) {
		tk, _, _ = sh.GetTask()
	}
}

func BenchmarkShellRead(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		// Re-reading one resident line: pure lookup + copy.
		benchSelfLoop(b, DefaultConfig("b"), 1024, func(sh *Shell, tk int) {
			fillWindow(b, sh, tk, 256)
			buf := make([]byte, 64)
			sh.Read(tk, 1, 0, buf) // warm the cache
			b.ReportAllocs()
			b.SetBytes(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.Read(tk, 1, 0, buf)
			}
			b.StopTimer()
			sh.PutSpace(tk, 1, 256)
		})
	})
	b.Run("miss", func(b *testing.B) {
		// A one-line cache with alternating target lines: every read is a
		// demand miss with an eviction (prefetch off isolates the miss).
		cfg := DefaultConfig("b")
		cfg.ReadCacheLines = 1
		cfg.PrefetchDepth = 0
		benchSelfLoop(b, cfg, 1024, func(sh *Shell, tk int) {
			fillWindow(b, sh, tk, 256)
			buf := make([]byte, 16)
			b.ReportAllocs()
			b.SetBytes(16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.Read(tk, 1, uint32(i%2)*16, buf)
			}
			b.StopTimer()
			sh.PutSpace(tk, 1, 256)
		})
	})
	b.Run("wrap", func(b *testing.B) {
		// A granted window wrapped around the circular-buffer seam: each
		// read spans two window segments and a partial line at the seam.
		cfg := DefaultConfig("b")
		benchSelfLoop(b, cfg, 320, func(sh *Shell, tk int) {
			// First trip fills and drains [0,256); the second window then
			// wraps: [256,320) + [0,192).
			fillWindow(b, sh, tk, 256)
			sh.PutSpace(tk, 1, 256)
			fillWindow(b, sh, tk, 256)
			buf := make([]byte, 32)
			sh.Read(tk, 1, 48, buf) // warm: offsets 48..80 straddle the seam
			b.ReportAllocs()
			b.SetBytes(32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.Read(tk, 1, 48, buf)
			}
			b.StopTimer()
			sh.PutSpace(tk, 1, 256)
		})
	})
}

func BenchmarkShellWrite(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		// Rewriting resident dirty lines: lookup + copy + mask update.
		benchSelfLoop(b, DefaultConfig("b"), 1024, func(sh *Shell, tk int) {
			for !sh.GetSpace(tk, 0, 256) {
				tk, _, _ = sh.GetTask()
			}
			data := make([]byte, 64)
			sh.Write(tk, 0, 0, data) // allocate the lines
			b.ReportAllocs()
			b.SetBytes(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.Write(tk, 0, 0, data)
			}
			b.StopTimer()
			sh.PutSpace(tk, 0, 256)
		})
	})
	b.Run("evict", func(b *testing.B) {
		// A one-line write cache with alternating target lines: every
		// write evicts and synchronously writes back the previous line.
		cfg := DefaultConfig("b")
		cfg.WriteCacheLines = 1
		benchSelfLoop(b, cfg, 1024, func(sh *Shell, tk int) {
			for !sh.GetSpace(tk, 0, 256) {
				tk, _, _ = sh.GetTask()
			}
			data := make([]byte, 16)
			b.ReportAllocs()
			b.SetBytes(16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.Write(tk, 0, uint32(i%2)*16, data)
			}
			b.StopTimer()
			sh.PutSpace(tk, 0, 256)
		})
	})
}

// BenchmarkShellStream measures the full producer/consumer round trip —
// GetSpace, Write, PutSpace, flush, putspace message, GetSpace, Read,
// PutSpace — per 64-byte chunk through a small buffer.
func BenchmarkShellStream(b *testing.B) {
	benchSelfLoop(b, DefaultConfig("b"), 256, func(sh *Shell, tk int) {
		data := make([]byte, 64)
		buf := make([]byte, 64)
		b.ReportAllocs()
		b.SetBytes(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for !sh.GetSpace(tk, 0, 64) {
				tk, _, _ = sh.GetTask()
			}
			sh.Write(tk, 0, 0, data)
			sh.PutSpace(tk, 0, 64)
			for !sh.GetSpace(tk, 1, 64) {
				tk, _, _ = sh.GetTask()
			}
			sh.Read(tk, 1, 0, buf)
			sh.PutSpace(tk, 1, 64)
		}
	})
}
