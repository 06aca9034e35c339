package eclipse

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"testing"

	"eclipse/internal/copro"
	"eclipse/internal/kpn"
	"eclipse/internal/mem"
	"eclipse/internal/shell"
)

// TestTimedRunDigests pins everything a timed run lets an observer see,
// not only its final cycle count: each constant below is a SHA-256 over
// every sampled trace series, the sink timeline, every shell's task,
// stream, cache, transport and idle counters, every bus port's request /
// busy / wait totals, the PI monitor's samples, the kernel's event count
// and the final memory contents. The constants were taken at the commit
// before sim.Proc grew its step script (Advance/Sync), so a change to how
// the kernel plays a process's private delays must reproduce all of it.
func TestTimedRunDigests(t *testing.T) {
	benchSetup(t)

	t.Run("fig10", func(t *testing.T) {
		const golden = "f66e59e5f4368ce302f6fa23ddd5a10824361f3269ea78296a9ac18a4047ce5d"
		sys := NewSystem(Fig8())
		bufs := DefaultDecodeBuffers()
		app, err := sys.AddDecodeApp("dec", benchStreams.qcif, DecodeOptions{Probes: true, Buffers: &bufs})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, runDigest(t, sys, nil, app), golden)
	})

	t.Run("encode", func(t *testing.T) {
		const golden = "47db4abda141bfb8fbb780d106884e626207989c52d254921af3dac91e61b53d"
		sys := NewSystem(Fig8())
		app, err := sys.AddEncodeApp("enc", benchStreams.encCfg, benchStreams.encFrames, EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := runDigest(t, sys, nil)
		digestGraph(h, sys, app.Graph)
		fmt.Fprintf(h, "bitstream %x\n", sha256.Sum256(app.Bitstream()))
		checkDigest(t, h, golden)
	})

	t.Run("dual", func(t *testing.T) {
		const golden = "e8bc40866037fc214460ac4f22a007e3e2b79ae3e5d38752f5723b7f6396d972"
		sys := NewSystem(Fig8())
		appA, err := sys.AddDecodeApp("a", benchStreams.sdA, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		appB, err := sys.AddDecodeApp("b", benchStreams.sdB, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, runDigest(t, sys, nil, appA, appB), golden)
	})

	t.Run("monitor", func(t *testing.T) {
		const golden = "10f3daee4ff23cde09208766f2f239f38844be94c5eb9304d5ddfa3baa04c323"
		sys := NewSystem(Fig8())
		app, err := sys.AddDecodeApp("dec", benchStreams.sdA, DecodeOptions{Probes: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range sys.coproOrder {
			sys.ProbeUtilization("util/"+name, name)
		}
		mon := sys.AddPIMonitor(2048)
		checkDigest(t, runDigest(t, sys, mon, app), golden)
	})
}

// runDigest runs the system to completion and hashes its observable state
// plus the given decode applications' timelines and stream counters and, if
// one is attached, the PI monitor's samples.
func runDigest(t *testing.T, sys *System, mon *shell.Monitor, apps ...*DecodeApp) hash.Hash {
	t.Helper()
	cycles, err := sys.Run(50_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "cycles %d events %d\n", cycles, sys.K.Events())
	digestSystem(h, sys)
	for _, app := range apps {
		digestGraph(h, sys, app.Graph)
		digestTimeline(h, app.Name, app.Sink.Timeline)
	}
	if mon != nil {
		reads, busy := mon.Bus.Stats()
		fmt.Fprintf(h, "pibus %d %d\n", reads, busy)
		for _, s := range mon.Samples {
			keys := make([]string, 0, len(s.Values))
			for k := range s.Values {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(h, "sample %d", s.Cycle)
			for _, k := range keys {
				fmt.Fprintf(h, " %s=%d", k, s.Values[k])
			}
			fmt.Fprintln(h)
		}
	}
	return h
}

func checkDigest(t *testing.T, h hash.Hash, golden string) {
	t.Helper()
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Errorf("timed-run digest %s, golden %s — something an observer of the run can see "+
			"(a sample, a counter, a bus wait, a byte of memory) moved", got, golden)
	}
}

// digestSystem hashes the state that belongs to the instance rather than to
// one application: trace series, per-shell counters, bus ports, memories.
func digestSystem(h hash.Hash, sys *System) {
	for _, name := range sys.Collector.Names() {
		s := sys.Collector.Series(name)
		fmt.Fprintf(h, "series %s %v %v\n", name, s.X, s.Y)
	}
	for _, name := range sys.coproOrder {
		sh := sys.Shell(name)
		fmt.Fprintf(h, "shell %s rd %+v wr %+v tr %+v idle %d\n", name,
			sh.ReadCacheStats(), sh.WriteCacheStats(), sh.TransportStats(), sh.IdleCycles())
	}
	for _, name := range sys.taskOrder {
		st, _ := sys.TaskStats(name)
		fmt.Fprintf(h, "task %s %+v\n", name, st)
	}
	for _, m := range []*mem.Memory{sys.SRAM, sys.DRAM} {
		fmt.Fprintf(h, "port %s %+v\n", m.ReadPort().Name(), m.ReadPort().Stats())
		if m.WritePort() != m.ReadPort() {
			fmt.Fprintf(h, "port %s %+v\n", m.WritePort().Name(), m.WritePort().Stats())
		}
		content := sha256.New()
		buf := make([]byte, 1<<15)
		for off := 0; off < m.Size(); off += len(buf) {
			n := min(len(buf), m.Size()-off)
			m.Peek(uint32(off), buf[:n])
			content.Write(buf[:n])
		}
		fmt.Fprintf(h, "mem %d %x\n", m.Size(), content.Sum(nil))
	}
}

// digestGraph hashes the stream-table counters of every port of every task
// of one mapped application graph.
func digestGraph(h hash.Hash, sys *System, g *kpn.Graph) {
	for _, task := range g.Tasks {
		for port := range task.Ports {
			st, _ := sys.StreamStats(task.Name, port)
			fmt.Fprintf(h, "stream %s.%d %+v\n", task.Name, port, st)
		}
	}
}

func digestTimeline(h hash.Hash, name string, tl []copro.FrameEvent) {
	for _, ev := range tl {
		fmt.Fprintf(h, "frame %s %d %d %d\n", name, ev.TRef, ev.Type, ev.Cycle)
	}
}
