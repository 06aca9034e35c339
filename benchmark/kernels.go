package main

import (
	"math/rand"
	"time"

	"eclipse/internal/media"
	"eclipse/internal/mem"
	"eclipse/internal/shell"
	"eclipse/internal/sim"
)

// kernelSink keeps the compiler from discarding the kernels' results.
var kernelSink int

// bestNs times fn (which performs n kernel calls) five times and returns
// the fastest run in ns per call: kernels are short, deterministic loops,
// so the minimum is the figure least touched by the machine.
func bestNs(n int, fn func()) float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		fn()
		best = min(best, time.Since(t0))
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// kernelMetrics times the innermost loops of the codec, the simulator's event
// kernel and the shell transport, each in isolation, on fixed inputs.
func kernelMetrics(out metricSet) error {
	rng := rand.New(rand.NewSource(1))
	const blocks = 256
	coefs := make([]media.Block, blocks)
	events := make([][]media.RunLevel, blocks)
	nEvents := 0
	for i := range coefs {
		for k := 0; k < 64; k++ {
			if k < 6 || rng.Intn(8) == 0 { // a low-frequency cluster plus a sparse tail
				coefs[i][k] = int16(rng.Intn(64) - 32)
			}
		}
		events[i] = media.RunLength((*[64]int16)(&coefs[i]))
		nEvents += len(events[i])
	}
	var tmp media.Block
	out.put("media.k_idct_ns", bestNs(blocks*8, func() {
		for r := 0; r < 8; r++ {
			for i := range coefs {
				media.IDCT(&coefs[i], &tmp)
			}
		}
	}), "ns")
	out.put("media.k_fdct_ns", bestNs(blocks*8, func() {
		for r := 0; r < 8; r++ {
			for i := range coefs {
				media.FDCT(&coefs[i], &tmp)
			}
		}
	}), "ns")

	var bw *media.BitWriter
	out.put("media.k_vlc_enc_ns", bestNs(nEvents, func() {
		bw = media.NewBitWriter()
		for _, evs := range events {
			for _, rl := range evs {
				media.EncodeRunLevel(bw, rl)
			}
			media.EncodeEOB(bw)
		}
	}), "ns")
	bw.Align()
	coded := bw.Bytes()
	out.put("media.k_vlc_dec_ns", bestNs(nEvents, func() {
		br := media.NewBitReader(coded)
		for range events {
			for {
				rl, eob, _ := media.DecodeRunLevel(br)
				if eob || br.Err() != nil {
					break
				}
				kernelSink += rl.Run
			}
		}
	}), "ns")
	reads := len(coded) * 8 / 7
	out.put("media.k_bitread_ns", bestNs(reads, func() {
		br := media.NewBitReader(coded)
		for i := 0; i < reads; i++ {
			kernelSink += int(br.ReadBits(7))
		}
	}), "ns")

	src := media.DefaultSource(176, 144)
	src.Seed = 1
	frames := media.NewSource(src).Frames(2)
	ref, cur := frames[0], frames[1]
	var mb media.MBPixels
	const sads = 4096
	out.put("media.k_sad_ns", bestNs(sads, func() {
		for i := 0; i < sads; i++ {
			mbx, mby := i%cur.MBCols(), (i/cur.MBCols())%cur.MBRows()
			cur.GetMB(mbx, mby, &mb)
			mv := media.MV{X: int16(i%7 - 3), Y: int16(i%5 - 2)}
			kernelSink += media.SAD(&mb, ref, mbx*media.MBSize, mby*media.MBSize, mv, 1<<30)
		}
	}), "ns")
	searchRange := media.DefaultCodec(176, 144).SearchRange
	out.put("media.k_msearch_ns", bestNs(cur.MBCount(), func() {
		for i := 0; i < cur.MBCount(); i++ {
			mbx, mby := i%cur.MBCols(), i/cur.MBCols()
			cur.GetMB(mbx, mby, &mb)
			r := media.MotionSearch(&mb, ref, mbx*media.MBSize, mby*media.MBSize, searchRange)
			kernelSink += r.SAD
		}
	}), "ns")

	// Event kernel alone: a producer firing a signal three consumers wait on.
	const rounds = 50_000
	var kernelEvents uint64
	var kerr error
	wall := bestNs(1, func() {
		k := sim.NewKernel()
		sig := k.NewSignal("data")
		k.NewProc("producer", 0, func(p *sim.Proc) {
			for j := 0; j < rounds; j++ {
				p.Delay(uint64(1 + j%7))
				sig.Fire()
			}
		})
		for c := 0; c < 3; c++ {
			k.NewProc("consumer", 0, func(p *sim.Proc) {
				for j := 0; j < rounds; j++ {
					p.Wait(sig)
					p.Delay(uint64(1 + j%5))
				}
			})
		}
		if err := k.Run(0); err != nil {
			if _, deadlock := err.(*sim.DeadlockError); !deadlock { // consumers outlive the producer by design
				kerr = err
			}
		}
		kernelEvents = k.Events()
		k.Shutdown()
	})
	if kerr != nil {
		return kerr
	}
	out.put("sim.kernel_ns_per_event", wall/float64(kernelEvents), "ns")

	// Shell transport alone: 1 MiB producer → consumer through a 1 KiB buffer.
	const total = 1 << 20
	var serr error
	wall = bestNs(1, func() { serr = shellStress(total) })
	if serr != nil {
		return serr
	}
	out.put("shell.stress_mb_per_s", float64(total)/(1<<20)/(wall/1e9), "MiB/s")
	return nil
}

func shellStress(total int) error {
	k := sim.NewKernel()
	defer k.Shutdown()
	f := shell.NewFabric(k, mem.New(k, mem.Fig8SRAM()))
	pSh, cSh := f.NewShell(shell.DefaultConfig("p")), f.NewShell(shell.DefaultConfig("c"))
	pT, cT := pSh.AddTask("prod", 0, 0), cSh.AddTask("cons", 0, 0)
	err := f.Connect(shell.Endpoint{Shell: pSh, Task: pT, Port: 0},
		[]shell.Endpoint{{Shell: cSh, Task: cT, Port: 0}}, 1024)
	if err != nil {
		return err
	}
	k.NewProc("prod", 0, func(p *sim.Proc) {
		pSh.Bind(p)
		data := make([]byte, 256)
		for sent := 0; sent < total; {
			task, _, ok := pSh.GetTask()
			if !ok {
				return
			}
			if !pSh.GetSpace(task, 0, 256) {
				continue
			}
			pSh.Write(task, 0, 0, data)
			pSh.PutSpace(task, 0, 256)
			sent += 256
		}
		pSh.TaskDone(pT)
		pSh.GetTask()
	})
	k.NewProc("cons", 0, func(p *sim.Proc) {
		cSh.Bind(p)
		buf := make([]byte, 16)
		for rcv := 0; rcv < total; {
			task, _, ok := cSh.GetTask()
			if !ok {
				return
			}
			if !cSh.GetSpace(task, 0, 256) {
				continue
			}
			for off := uint32(0); off < 256; off += 16 {
				cSh.Read(task, 0, off, buf)
			}
			cSh.PutSpace(task, 0, 256)
			rcv += 256
		}
		cSh.TaskDone(cT)
		cSh.GetTask()
	})
	return k.Run(0)
}
